"""Forcing layer: conditions, staged trees, fusion, and density searches."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dnrlab import forcing
from dnrlab.asm import DIVERGE_INDEX, const_index
from dnrlab.bushy import (
    MalformedTree,
    OrderFunction,
    TreeWitness,
    bushiness,
    is_n_big,
    region_nodes,
    verify_bushy,
    witness_tree,
)
from dnrlab.errors import CombinatorialBlowup
from dnrlab.forcing import (
    BignessUnavailable,
    BudgetExceeded,
    DiagonalExt,
    FiniteFunctional,
    ForcingCondition,
    NonTotalExt,
    SearchLimits,
    _badset_closure,
    _c_m_minimal,
    _lengthen_stem,
    build_totality_tree,
    c_m_set,
    case2_zero_tree,
    delta_sets,
    density_search,
    fusion_step,
)
from dnrlab.machine import Halted, eval_program
from test_density_golden import BATTERY as GOLDEN, EXITS

G8 = OrderFunction.constant(8)
G16 = OrderFunction.constant(16)
Q0 = const_index(0)
LIMITS = SearchLimits()


def parity_table(width: int, levels: int, depth: int) -> FiniteFunctional:
    """Each node of length <= levels outputs the parities of its coordinates."""
    entries = {}
    frontier = [()]
    for _ in range(levels):
        frontier = [node + (c,) for node in frontier for c in range(width)]
        for node in frontier:
            entries[node] = tuple(c % 2 for c in node)
    return FiniteFunctional.from_entries(depth, entries)


PARITY1 = parity_table(8, 1, 2)
PARITY3 = parity_table(8, 3, 4)
CONST3 = FiniteFunctional.constant(3, (0, 0, 0))
EMPTY3 = FiniteFunctional(3, ())
EMPTY_COND = ForcingCondition((), frozenset(), G8)


def extends(c1: ForcingCondition, c2: ForcingCondition) -> bool:
    """c1 extends c2: same order function, longer stem, larger badset."""
    return (c1.g == c2.g and c1.stem[:len(c2.stem)] == c2.stem
            and c2.badset <= c1.badset)


# ---------------------------------------------------------------------------
# Functional tables.

class TestFiniteFunctional:
    def test_output_longest_prefix(self):
        f = FiniteFunctional.from_entries(3, {(1,): (0,), (1, 2): (0, 1)})
        assert f.output(()) == ()
        assert f.output((1,)) == (0,)
        assert f.output((1, 2)) == (0, 1)
        assert f.output((1, 2, 5)) == (0, 1)
        assert f.output((0, 0)) == ()
        assert f.decided_length((1, 2, 5)) == 2
        assert f.max_output_length() == 2
        assert FiniteFunctional.constant(2, (1,)).output((0, 1)) == (1,)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="monotonicity"):
            FiniteFunctional.from_entries(2, {(1,): (0,), (1, 2): (1, 1)})

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FiniteFunctional(2, (((1,), (0,)), ((1,), (0,))))

    def test_depth_bound(self):
        with pytest.raises(ValueError, match="depth"):
            FiniteFunctional.from_entries(1, {(1, 2): (0,)})

    def test_non_bit_output_rejected(self):
        with pytest.raises(ValueError):
            FiniteFunctional.from_entries(2, {(1,): (2,)})

    def test_jsonable_roundtrip(self):
        f = parity_table(4, 2, 3)
        assert FiniteFunctional.from_jsonable(f.to_jsonable()) == f


# ---------------------------------------------------------------------------
# Conditions.

class TestConditions:
    def test_big_badset_rejected(self):
        # every child of the stem is bad, so the badset is 8-big above it
        badset = frozenset({(c,) for c in range(8)})
        with pytest.raises(ValueError, match="big"):
            ForcingCondition((), badset, G8)

    def test_smallness_degree(self):
        assert EMPTY_COND.smallness_degree() == 1
        assert ForcingCondition((), frozenset({(7,)}), G8).smallness_degree() == 2


# ---------------------------------------------------------------------------
# Delta sets.

def golden_search_start(name):
    """A golden search's table and condition, with the k, badset closure
    and lengthened stem density_search derives from them."""
    table, _, g, stem, badset, _ = GOLDEN[name]
    cond = ForcingCondition(stem, frozenset(badset), g)
    k = cond.smallness_degree()
    avoid = _badset_closure(cond.badset, k, g, table.depth)
    tau0 = _lengthen_stem(stem, max(g.first_level_with(8 * k), len(stem)), avoid, g)
    return table, cond, k, avoid, tau0


def naive_delta_set(gamma_table, tree, m, i):
    """The tree's nodes deciding position m with bit i, by one scan of the
    tree per (position, bit): the mirror of delta_sets."""
    return frozenset(node for node in tree.nodes
                     if len(out := gamma_table.output(node)) > m and out[m] == i)


class TestDeltaSet:
    def test_constant_zero_table(self):
        tree = build_totality_tree(CONST3, (), 1, 1, frozenset(), G8)
        zeros, ones = delta_sets(CONST3, tree)[0]
        assert zeros == tree.nodes
        assert ones == frozenset()

    def test_depth2_even_split(self):
        tree = build_totality_tree(PARITY1, (), 1, 1, frozenset(), G8)
        zeros, ones = delta_sets(PARITY1, tree)[0]
        assert zeros == {(0,), (2,), (4,)}
        assert ones == {(1,), (3,), (5,)}

    def test_partition_of_deciders(self):
        tree = build_totality_tree(PARITY3, (), 1, 3, frozenset(), G8)
        for m, (zeros, ones) in enumerate(delta_sets(PARITY3, tree)):
            deciders = {n for n in tree.nodes if PARITY3.decided_length(n) > m}
            assert zeros | ones == deciders
            assert not zeros & ones

    def test_one_entry_per_tabled_position(self):
        tree = build_totality_tree(CONST3, (), 1, 1, frozenset(), G8)
        assert len(delta_sets(CONST3, tree)) == CONST3.max_output_length()

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_mirror_on_golden_tables(self, name):
        table, cond, k, avoid, tau0 = golden_search_start(name)
        g = cond.g
        try:
            tree = build_totality_tree(table, tau0, k, max(table.max_output_length(), 1),
                                       avoid, g)
        except BignessUnavailable:
            return  # the search takes its non-totality exit: no Delta sets are read
        assert delta_sets(table, tree) == [
            (naive_delta_set(table, tree, m, 0), naive_delta_set(table, tree, m, 1))
            for m in range(table.max_output_length())]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_mirror_on_partial_trees(self, data):
        """Random coherent tables read over any set of region nodes, so
        positions are decided by some nodes and not by others."""
        g, table, _ = data.draw(coherent_tables())
        nodes = data.draw(st.sets(st.sampled_from(list(region_nodes(g, table.depth)))))
        tree = TreeWitness((), frozenset(nodes) | {()})
        assert delta_sets(table, tree) == [
            (naive_delta_set(table, tree, m, 0), naive_delta_set(table, tree, m, 1))
            for m in range(table.max_output_length())]


# ---------------------------------------------------------------------------
# Totality trees.

class TestTotalityTree:
    def test_full_depth2_table(self):
        tree = build_totality_tree(PARITY1, (), 1, 1, frozenset(), G8)
        verify_bushy(tree, 6, G8, exactly=True)
        assert max(len(n) for n in tree.nodes) >= 1
        for leaf in tree.leaves():
            assert PARITY1.decided_length(leaf) >= 1

    def test_empty_table_fails_at_zero(self):
        with pytest.raises(BignessUnavailable) as exc:
            build_totality_tree(EMPTY3, (), 1, 1, frozenset(), G8)
        assert exc.value.position == 0
        assert exc.value.node == ()

    def test_staged_to_depth(self):
        tree = build_totality_tree(PARITY3, (), 1, 3, frozenset(), G8)
        verify_bushy(tree, 6, G8, exactly=True)
        for leaf in tree.leaves():
            assert PARITY3.decided_length(leaf) >= 3

    def test_badset_avoided(self):
        table = parity_table(16, 1, 2)
        avoid = _badset_closure(frozenset({(7,)}), 2, G16, table.depth)
        tree = build_totality_tree(table, (), 2, 1, avoid, G16)
        verify_bushy(tree, 12, G16, exactly=True)
        assert (7,) not in tree.nodes

    def test_stem_inside_closure_rejected(self):
        # one bad child makes the root 1-big: the 1-closure holds the stem
        avoid = _badset_closure(frozenset({(0,)}), 1, G8, PARITY1.depth)
        with pytest.raises(ValueError, match="closure"):
            build_totality_tree(PARITY1, (), 1, 1, avoid, G8)


# ---------------------------------------------------------------------------
# Fusion.

def fuse(table: FiniteFunctional, inputs) -> tuple[TreeWitness, list[tuple[int, int]]]:
    """fusion_step above the root within the full region, with the 2-bushy
    tree density_search reads off the fused pairs' constraint set."""
    region = TreeWitness((), frozenset(region_nodes(G8, table.depth)))
    fused, kept = fusion_step(delta_sets(table, region), (), 1, inputs, G8, table.depth,
                              frozenset())
    return witness_tree(kept[-1], 2, G8, (), table.depth), fused


def naive_fusion(gamma_table, tree, tau, k, inputs, g, avoid):
    """Greedy fusion filtering the tree's nodes output by output for every
    candidate list of constraints: the mirror of fusion_step, with the
    constraint set of each fused prefix."""
    depth = gamma_table.depth

    def constraint_set(constraints):
        return frozenset(node for node in tree.nodes
                         if all(len(out := gamma_table.output(node)) > m and out[m] == i
                                for m, i in constraints))

    for m, i in inputs:
        if not is_n_big(constraint_set([(m, i)]), 4 * k, g, tau, depth):
            raise ValueError("precondition failed")
    fused, kept = [], []
    for pair in inputs:
        candidate = constraint_set(fused + [pair])
        if bushiness(candidate, g, depth, tau, avoid) >= 2 * k:
            fused.append(pair)
            kept.append(candidate)
    return fused, kept


def big_inputs_of(table, tree, tau, k, g):
    """The (position, bit) pairs density_search hands to fusion: per
    position, the first bit whose Delta set is 4k-big above tau."""
    inputs = []
    for m, sides in enumerate(delta_sets(table, tree)):
        for i in (0, 1):
            if is_n_big(sides[i], 4 * k, g, tau, table.depth):
                inputs.append((m, i))
                break
    return inputs


class TestFusion:
    def test_constant_table_retains_all(self):
        inputs = [(0, 0), (1, 0), (2, 0)]
        tree, fused = fuse(CONST3, inputs)
        assert fused == inputs
        verify_bushy(tree, 2, G8)

    def test_parity_fuses_at_least_two(self):
        table = parity_table(8, 2, 3)
        tree, fused = fuse(table, [(0, 0), (1, 0)])
        assert len(fused) >= 2
        verify_bushy(tree, 2, G8)
        for leaf in tree.leaves():
            bits = table.output(leaf)
            assert bits[0] == 0 and bits[1] == 0

    def test_constancy_audit(self):
        tree, fused = fuse(PARITY3, [(0, 0), (1, 1), (2, 0)])
        for m, i in fused:
            for leaf in tree.leaves():
                assert PARITY3.output(leaf)[m] == i

    def test_precondition_checked(self):
        with pytest.raises(ValueError, match="precondition"):
            fuse(CONST3, [(0, 1)])

    def test_disjoint_pair_rejected(self):
        # children 0-3 output (0, 0), children 4-7 output (1, 1): both
        # Deltas below are 4-big, and their intersection is empty
        table = FiniteFunctional.from_entries(2, {(a,): (a // 4,) * 2 for a in range(8)})
        region = TreeWitness((), frozenset(region_nodes(G8, table.depth)))
        inputs = [(0, 0), (1, 1), (1, 0)]
        fused, kept = fusion_step(delta_sets(table, region), (), 1, inputs, G8, table.depth,
                                  frozenset())
        assert fused == [(0, 0), (1, 0)]
        assert kept[0] == kept[1] == {node for node in region.nodes if node[:1] < (4,) and node}
        assert (fused, kept) == naive_fusion(table, region, (), 1, inputs, G8, frozenset())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_mirror_on_golden_tables(self, name):
        table, cond, k, avoid, tau0 = golden_search_start(name)
        g = cond.g
        try:
            tree = build_totality_tree(table, tau0, k, max(table.max_output_length(), 1),
                                       avoid, g)
        except BignessUnavailable:
            return  # the search takes its non-totality exit: nothing is fused
        inputs = big_inputs_of(table, tree, tau0, k, g)
        assert fusion_step(delta_sets(table, tree), tau0, k, inputs, g, table.depth, avoid) \
            == naive_fusion(table, tree, tau0, k, inputs, g, avoid)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_mirror_on_coherent_tables(self, data):
        """The pairs meeting the precondition, in any order, over the region
        above each stem and outside the closure of one bad node; adding a
        pair that fails the precondition fails it."""
        g, table, stems = data.draw(coherent_tables())
        depth = table.depth
        pairs = [(m, i) for m in range(table.max_output_length()) for i in (0, 1)]
        bad = data.draw(st.sampled_from(list(region_nodes(g, depth))))
        closed = _badset_closure(frozenset({bad}), 1, g, depth)
        for stem in stems:
            tree = TreeWitness(stem, frozenset(region_nodes(g, depth, stem)))
            avoid = frozenset() if stem in closed else closed
            deltas = delta_sets(table, tree)
            big = [p for p in pairs
                   if is_n_big(naive_delta_set(table, tree, *p), 4, g, stem, depth)]
            inputs = data.draw(st.permutations(big))
            assert fusion_step(deltas, stem, 1, inputs, g, depth, avoid) == \
                naive_fusion(table, tree, stem, 1, inputs, g, avoid)
            small = [p for p in pairs if p not in big]
            if small:
                with pytest.raises(ValueError, match="precondition"):
                    fusion_step(deltas, stem, 1, inputs + [small[0]], g, depth, avoid)


# ---------------------------------------------------------------------------
# Zero forcing.

def naive_case2_zero_tree(gamma_table, sigma, k, count, avoid, g):
    """The zero tree with a totality tree grown afresh above every leaf for
    every candidate position: the mirror of case2_zero_tree."""
    depth = gamma_table.depth
    capacity = gamma_table.max_output_length()
    nodes, leaves, zeros = {sigma}, [sigma], []
    for _ in range(count):
        floor = zeros[-1] + 1 if zeros else 0
        for position in range(floor, capacity):
            grafts = []
            for rho in sorted(leaves):
                tree_rho = build_totality_tree(gamma_table, rho, k, position + 1, avoid, g)
                zero_delta = naive_delta_set(gamma_table, tree_rho, position, 0)
                if not is_n_big(zero_delta, 2 * k, g, rho, depth):
                    break
                grafts.append(witness_tree(zero_delta, k, g, rho, depth, avoid=avoid))
            if len(grafts) == len(leaves):
                break
        else:
            break
        for graft in grafts:
            nodes.update(graft.nodes)
        leaves = [leaf for graft in grafts for leaf in graft.leaves()]
        zeros.append(position)
    return TreeWitness(sigma, frozenset(nodes)), zeros


def zero_tree(table, k, count, avoid, g, stem=()):
    """case2_zero_tree over the totality tree density_search builds above stem."""
    totality = build_totality_tree(table, stem, k, max(table.max_output_length(), 1), avoid, g)
    zero_sides = [zero for zero, _ in delta_sets(table, totality)]
    return case2_zero_tree(table, stem, zero_sides, k, count, avoid, g)


def assert_zero_tree_matches_mirror(table, k, avoid, g, stem):
    """Every count up to the table's positions gives the mirror's tree and zeros."""
    for count in range(table.max_output_length() + 1):
        assert zero_tree(table, k, count, avoid, g, stem) == \
            naive_case2_zero_tree(table, stem, k, count, avoid, g)


class TestCase2ZeroTree:
    def test_constant_table(self):
        tree, zeros = zero_tree(CONST3, 1, 2, frozenset(), G8)
        assert zeros == [0, 1]
        verify_bushy(tree, 1, G8)
        for leaf in tree.leaves():
            bits = CONST3.output(leaf)
            assert bits[0] == 0 and bits[1] == 0

    def test_parity_depth3(self):
        table = parity_table(8, 2, 3)
        tree, zeros = zero_tree(table, 1, 2, frozenset(), G8)
        assert zeros == [0, 1]
        verify_bushy(tree, 1, G8)
        for leaf in tree.leaves():
            bits = table.output(leaf)
            assert all(bits[n] == 0 for n in zeros)

    def test_badset_leaves_disjoint(self):
        table = parity_table(16, 2, 2)
        badset = frozenset({(7,), (3, 0)})
        avoid = _badset_closure(badset, 2, G16, table.depth)
        tree, zeros = zero_tree(table, 2, 1, avoid, G16)
        assert zeros == [0]
        assert not tree.leaves() & badset
        assert not tree.nodes & badset

    def test_zeros_strictly_increasing(self):
        _, zeros = zero_tree(PARITY3, 1, 3, frozenset(), G8)
        assert zeros == sorted(set(zeros))

    def test_capacity_exhaustion(self):
        # PARITY1 decides one position, so the pass stops after forcing it
        tree, zeros = zero_tree(PARITY1, 1, 2, frozenset(), G8)
        assert zeros == [0]
        verify_bushy(tree, 1, G8)

    def test_totality_loss_reported(self):
        # only three children above (0,) ever decide position 1, so the
        # totality tree the zero tree reads fails there first
        entries = {(a,): (a % 2,) for a in range(8)}
        entries.update({(0, b): (0, b % 2) for b in range(3)})
        table = FiniteFunctional.from_entries(2, entries)
        with pytest.raises(BignessUnavailable) as exc:
            build_totality_tree(table, (), 1, 2, frozenset(), G8)
        assert exc.value.position == 1
        assert exc.value.node == (0,)

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_mirror_on_golden_tables(self, name):
        table, cond, k, avoid, tau0 = golden_search_start(name)
        g = cond.g
        try:
            assert_zero_tree_matches_mirror(table, k, avoid, g, tau0)
        except BignessUnavailable:
            # the search takes its non-totality exit before any zero tree
            assert isinstance(density_search(table, Q0, cond, LIMITS), NonTotalExt)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_mirror_on_total_tables(self, data):
        depth = data.draw(st.integers(1, 2))
        entries, outputs = {}, {(): ()}
        for node in region_nodes(G8, depth):
            if node:
                outputs[node] = entries[node] = outputs[node[:-1]] + (data.draw(st.integers(0, 1)),)
        table = FiniteFunctional.from_entries(depth, entries)
        assert_zero_tree_matches_mirror(table, 1, frozenset(), G8, ())


# ---------------------------------------------------------------------------
# Density search.

class TestDensitySearch:
    def test_empty_table_non_total(self):
        verdict = density_search(EMPTY3, Q0, EMPTY_COND, LIMITS)
        assert isinstance(verdict, NonTotalExt)
        assert verdict.m == 0
        assert extends(verdict.condition, EMPTY_COND)
        assert verdict.certificate["kind"] == "non_total_extension"
        assert verdict.certificate["c_m_minimal"] == []

    def test_constant_table_case2(self):
        verdict = density_search(CONST3, Q0, EMPTY_COND, LIMITS)
        assert isinstance(verdict, DiagonalExt)
        cert = verdict.certificate
        assert cert["case"] == "case2"
        assert cert["winner"] == 0
        assert len(cert["w_winner"]) >= 1
        assert len(cert["w_winner"]) > cert["m"]
        # replay: the winning index really enumerates the claimed set
        e_win = (cert["e0"], cert["e1"])[cert["winner"]]
        for n in range(cert["position_horizon"]):
            out = eval_program(e_win, n, cert["eval_budget"])
            assert isinstance(out, Halted) == (n in cert["w_winner"])
        # replay: every leaf of the certificate tree outputs 0 on the fused inputs
        for m, i in cert["fused"]:
            assert i == 0
            for node in cert["tree"]["nodes"]:
                bits = CONST3.output(tuple(node))
                if len(bits) > m:
                    assert bits[m] == i

    def test_one_level_parity_zero_route(self):
        verdict = density_search(PARITY1, Q0, EMPTY_COND, LIMITS)
        assert isinstance(verdict, DiagonalExt)
        assert verdict.certificate["case"] == "case2"
        assert verdict.certificate["tree_bushiness"] == 1

    def test_forced_ones_case1(self):
        entries = {(a,): (1,) for a in range(8)}
        entries.update({(a, b): (1, b % 2) for a in range(8) for b in range(8)})
        table = FiniteFunctional.from_entries(3, entries)
        verdict = density_search(table, Q0, EMPTY_COND, LIMITS)
        assert isinstance(verdict, DiagonalExt)
        cert = verdict.certificate
        assert cert["case"] == "case1"
        assert cert["winner"] == 1
        assert cert["fused"] == [[0, 1]]

    def test_deep_parity_multi_fuse(self):
        verdict = density_search(PARITY3, const_index(1), EMPTY_COND, LIMITS)
        assert isinstance(verdict, DiagonalExt)
        cert = verdict.certificate
        assert cert["m"] == 1
        assert cert["c"] == 3
        assert cert["w_winner"] == [0, 1, 2]
        tree_nodes = frozenset(tuple(n) for n in cert["tree"]["nodes"])
        from dnrlab.bushy import TreeWitness
        verify_bushy(TreeWitness(tuple(cert["tree"]["stem"]), tree_nodes),
                     cert["tree_bushiness"], G8)

    def test_shallow_table_budget_exceeded(self):
        verdict = density_search(CONST3, const_index(5), EMPTY_COND, LIMITS)
        assert isinstance(verdict, BudgetExceeded)
        assert len(verdict.trace) > 0

    def test_diverging_q_budget_exceeded(self):
        verdict = density_search(CONST3, DIVERGE_INDEX, EMPTY_COND, LIMITS)
        assert isinstance(verdict, BudgetExceeded)
        assert "q not total" in verdict.reason

    def test_nonempty_badset(self):
        cond = ForcingCondition((), frozenset({(7,)}), G16)
        table = parity_table(16, 1, 2)
        verdict = density_search(table, Q0, cond, LIMITS)
        assert isinstance(verdict, DiagonalExt)
        assert extends(verdict.condition, cond)
        assert (7,) not in {tuple(n) for n in verdict.certificate["tree"]["nodes"]}

    def test_deterministic(self):
        v1 = density_search(PARITY1, Q0, EMPTY_COND, LIMITS)
        v2 = density_search(PARITY1, Q0, EMPTY_COND, LIMITS)
        assert v1.certificate == v2.certificate
        assert v1.trace == v2.trace

    def test_delta_sets_read_once_per_search(self):
        """Fusion, its 2k tree and the zero tree all read the one list of
        Delta sets each golden search derives from its totality tree."""
        searches = [(table, const_index(q), g, stem, badset, LIMITS)
                    for table, q, g, stem, badset, _ in GOLDEN.values()]
        searches += [search for *search, _ in EXITS.values()]
        counts = []
        with mock.patch.object(forcing, "delta_sets", wraps=delta_sets) as spy:
            for table, q, g, stem, badset, limits in searches:
                spy.reset_mock()
                density_search(table, q, ForcingCondition(stem, frozenset(badset), g), limits)
                counts.append(spy.call_count)
        assert max(counts) == 1

    def test_search_from_a_returned_condition(self):
        first = density_search(PARITY1, Q0, EMPTY_COND, LIMITS)
        second = density_search(CONST3, Q0, first.condition, LIMITS)
        assert isinstance(first, DiagonalExt) and isinstance(second, DiagonalExt)
        assert extends(second.condition, first.condition)
        assert all(v < G8(i) for i, v in enumerate(second.condition.stem))

    def test_stem_lengthening_recorded(self):
        verdict = density_search(CONST3, Q0, EMPTY_COND, LIMITS)
        steps = [entry["step"] for entry in verdict.trace]
        assert "lengthen_stem" in steps
        assert "close_badset" in steps


# ---------------------------------------------------------------------------
# Random tables keep every route well-defined.

@st.composite
def monotone_tables(draw):
    """Level-1 tables over width 8: each child decides one bit or abstains."""
    bits = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=8, max_size=8))
    entries = {(a,): (b,) for a, b in enumerate(bits) if b is not None}
    return FiniteFunctional.from_entries(2, entries)


@st.composite
def deep_tables(draw):
    """Coherent tables over width 3 to depth 3: each node either stays
    untabled or extends its parent's output by up to two bits."""
    g = OrderFunction.constant(3)
    entries, outputs = {}, {}
    for node in region_nodes(g, 3):
        out = outputs.get(node[:-1], ())
        if draw(st.booleans()):
            out = entries[node] = out + tuple(draw(st.lists(st.integers(0, 1), max_size=2)))
        outputs[node] = out
    return FiniteFunctional.from_entries(3, entries)


@settings(max_examples=60, deadline=None)
@given(deep_tables(), st.sampled_from([(), (0,), (2, 1)]), st.integers(0, 4))
def test_c_m_minimal_matches_a_per_node_scan(table, stem, m):
    g = OrderFunction.constant(3)
    naive = frozenset(
        node for node in region_nodes(g, table.depth, stem)
        if table.decided_length(node) > m
        and not (len(node) > len(stem) and table.decided_length(node[:-1]) > m))
    assert _c_m_minimal(c_m_set(table, g, stem, m), stem) == naive


@st.composite
def coherent_tables(draw):
    """A coherent table over one to three widths from 2 to 4, to depth 0..3,
    and valid stems no longer than the depth."""
    g = OrderFunction(tuple(sorted(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))))
    depth = draw(st.integers(0, 3))
    entries, outputs = {}, {}
    for node in region_nodes(g, depth):
        out = outputs.get(node[:-1], ())
        if draw(st.booleans()):
            out = entries[node] = out + tuple(draw(st.lists(st.integers(0, 1), max_size=2)))
        outputs[node] = out
    stems = draw(st.lists(st.sampled_from(list(region_nodes(g, depth))), min_size=1, max_size=3))
    return g, FiniteFunctional.from_entries(depth, entries), stems


@settings(max_examples=100, deadline=None)
@given(coherent_tables())
def test_c_m_set_matches_a_per_node_scan(instance):
    g, table, stems = instance
    for stem in stems:  # one table, several stems
        for m in range(table.max_output_length() + 2):
            naive = frozenset(n for n in region_nodes(g, table.depth, stem)
                              if len(table.output(n)) > m)
            got = c_m_set(table, g, stem, m)
            assert got == naive and list(got) == list(naive)


def test_c_m_set_edge_cases():
    assert c_m_set(PARITY3, G8, (0,) * 5, 0) == frozenset()
    with pytest.raises(ValueError, match="not a valid string"):
        c_m_set(PARITY3, G8, (8,), 0)
    with pytest.raises(CombinatorialBlowup):
        c_m_set(FiniteFunctional(6, ()), G16, (), 0)


class TestDensityTotality:
    @settings(max_examples=15, deadline=None)
    @given(monotone_tables())
    def test_always_returns_a_verdict(self, table):
        verdict = density_search(table, Q0, EMPTY_COND, LIMITS)
        assert isinstance(verdict, (NonTotalExt, DiagonalExt, BudgetExceeded))
        if isinstance(verdict, (NonTotalExt, DiagonalExt)):
            assert extends(verdict.condition, EMPTY_COND)

    @settings(max_examples=15, deadline=None)
    @given(monotone_tables())
    def test_verdicts_replay(self, table):
        verdict = density_search(table, Q0, EMPTY_COND, LIMITS)
        if isinstance(verdict, DiagonalExt):
            cert = verdict.certificate
            e_win = (cert["e0"], cert["e1"])[cert["winner"]]
            members = set(cert["w_winner"])
            assert len(members) > cert["m"]
            for n in range(cert["position_horizon"]):
                out = eval_program(e_win, n, cert["eval_budget"])
                assert isinstance(out, Halted) == (n in members)
