"""Bushy-tree combinatorics tests.

The bigness vectors asserted below were worked out by hand from the
inductive definition (n-big above sigma iff sigma is a member or at least n
children are n-big) before being run, and the marking implementation is
additionally played against the naive subset-search mirror on exhaustive
small domains.
"""

from __future__ import annotations

from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnrlab import bushy
from dnrlab.bushy import (
    BIG_CAP,
    REGION_NODE_LIMIT,
    CounterexampleWitness,
    LemmaHolds,
    MalformedTree,
    OrderFunction,
    PreconditionViolated,
    TreeWitness,
    brute_force_is_n_big,
    bushiness,
    bushiness_numbers,
    closure,
    closure_check,
    intersection_bushiness_check,
    is_n_big,
    level_nodes,
    region_nodes,
    region_size,
    union_smallness_sweep,
    verify_bushy,
    witness_tree,
)
from dnrlab.certs import decode_field
from dnrlab.errors import CombinatorialBlowup

G2 = OrderFunction.constant(2)
G3 = OrderFunction.constant(3)
G6 = OrderFunction.constant(6)


# ---------------------------------------------------------------------------
# Order functions.

def test_order_function_table_and_tail():
    g = OrderFunction((2, 3, 3), tail_base=3, tail_period=2)
    assert [g(n) for n in range(8)] == [2, 3, 3, 3, 3, 4, 4, 5]


def test_order_function_constant_tail():
    g = OrderFunction.constant(4)
    assert [g(n) for n in (0, 1, 100)] == [4, 4, 4]


def test_order_function_tail_never_narrows():
    g = OrderFunction((5,), tail_base=2, tail_period=3)
    # the linear tail starts below the table value and is clamped up;
    # 2 + (n - 1) // 3 first exceeds 5 at n = 13
    assert [g(n) for n in range(14)] == [5] * 13 + [6]


@pytest.mark.parametrize("spec", ["3", "2,3,4", "2,2;tail=2,1", "8;tail=0,3"])
def test_order_function_spec_roundtrip(spec):
    g = OrderFunction.from_spec(spec)
    twin = OrderFunction.from_spec(g.to_spec())
    assert twin == g and twin is not g
    # the kept hash is the field tuple's, so equal instances hash alike
    assert hash(g) == hash(twin) == hash((g.table, g.tail_base, g.tail_period))
    assert g.to_spec() == OrderFunction.from_spec(g.to_spec()).to_spec()


# widths are ASCII digits: int() alone would read "1_0" as 10 and "\uff13" as 3
@pytest.mark.parametrize("bad", ["", "1", "3,2", "2;tail=x", "2;tails=1,1", "2;tail=1",
                                 "1_0", "+3", " 3", "3 ", "\uff13", "3, 4", "2;tail=+1,1", 3])
def test_order_function_bad_specs(bad):
    with pytest.raises(ValueError):
        OrderFunction.from_spec(bad)


def test_order_function_first_level_with():
    g = OrderFunction((2, 3), tail_base=0, tail_period=2)
    assert g.first_level_with(2) == 0
    assert g.first_level_with(3) == 1
    assert g.first_level_with(5) == 12  # tail reaches 5 at (n - 2) // 2 >= 5
    assert g.value(12) == 5 and g.value(11) == 4
    assert OrderFunction.constant(3).first_level_with(4) is None


@given(st.lists(st.integers(2, 6), min_size=1, max_size=4).map(sorted),
       st.integers(0, 10), st.integers(0, 5), st.integers(1, 20))
@settings(max_examples=300, deadline=None)
def test_first_level_with_matches_a_scan(table, tail_base, tail_period, width):
    g = OrderFunction(tuple(table), tail_base, tail_period)
    # every answer lies below len(table) + width * tail_period <= 104
    scan = next((n for n in range(200) if g.value(n) >= width), None)
    assert g.first_level_with(width) == scan


def test_node_validation():
    g = OrderFunction((2, 4))
    assert g.validate_node(())
    assert g.validate_node((1, 3))
    assert not g.validate_node((2,))
    assert not g.validate_node((0, 4))


def test_region_enumeration():
    assert list(level_nodes(G2, 1)) == [(0,), (1,)]
    assert len(list(region_nodes(G3, 2))) == 1 + 3 + 9
    assert list(region_nodes(G2, 2, (1,))) == [(1,), (1, 0), (1, 1)]


@st.composite
def _listing_instances(draw):
    """Nondecreasing widths from 2 to 4, a depth up to 3 and a valid stem of
    up to two letters, which may reach past the depth."""
    g = OrderFunction(tuple(sorted(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))))
    stem = tuple(draw(st.integers(0, g.value(i) - 1)) for i in range(draw(st.integers(0, 2))))
    return g, draw(st.integers(0, 3)), stem


@given(_listing_instances())
@settings(max_examples=200, deadline=None)
def test_listing_matches_a_product_enumeration(instance):
    g, depth, stem = instance

    def level(d):
        if d < len(stem):
            return []
        return [stem + suffix
                for suffix in product(*(range(g.value(i)) for i in range(len(stem), d)))]

    assert [tau for tau in region_nodes(g, depth, stem) if len(tau) == depth] == level(depth)
    if not stem:
        assert list(level_nodes(g, depth)) == level(depth)
    assert list(region_nodes(g, depth, stem)) == [
        tau for d in range(len(stem), depth + 1) for tau in level(d)]


def test_listing_reads_the_region_index():
    with pytest.raises(CombinatorialBlowup):
        region_nodes(G3, 10**9)
    with pytest.raises(CombinatorialBlowup):
        level_nodes(G3, 10**9)
    with pytest.raises(ValueError, match="not a valid string"):
        region_nodes(G3, 2, (3,))
    levels, _ = bushy._region_index(G3, 2, ())
    assert level_nodes(G3, 2) is levels[-1]
    listed = list(region_nodes(G3, 2))
    assert len(listed) == 13
    assert all(a is b for a, b in zip(listed, chain.from_iterable(levels)))


# ---------------------------------------------------------------------------
# Bigness marking: hand-derived vectors.

def test_member_at_stem_is_maximally_big():
    beta = bushiness_numbers({()}, G3, 2)
    assert beta[()] == BIG_CAP


def test_strict_prefix_member_never_certifies():
    # the root is a member, but bigness above (0,) only sees extensions
    assert is_n_big({()}, 1, G3, (), 2)
    assert not is_n_big({()}, 1, G3, (0,), 2)


def test_hand_vector_two_big_three_small():
    B = {(0, 0), (0, 1), (1, 0), (1, 1), (2,)}
    beta = bushiness_numbers(B, G3, 2)
    assert beta[(0,)] == 2 and beta[(1,)] == 2
    assert beta[(2,)] == BIG_CAP
    assert beta[()] == 2
    assert is_n_big(B, 2, G3, (), 2)
    assert not is_n_big(B, 3, G3, (), 2)


def test_full_level_is_maximally_wide():
    B = set(level_nodes(G3, 2))
    beta = bushiness_numbers(B, G3, 2)
    assert beta[()] == 3  # every child is 3-big, and the width caps at 3


def test_bigness_rejects_n_zero():
    with pytest.raises(ValueError):
        is_n_big(set(), 0, G2, (), 1)


def test_bigness_rejects_invalid_members():
    with pytest.raises(ValueError):
        is_n_big({(5,)}, 1, G2, (), 2)
    with pytest.raises(ValueError):
        is_n_big({(0, 0, 0)}, 1, G2, (), 2)


def _powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def test_marking_matches_brute_force_exhaustively():
    region = list(region_nodes(G2, 2))
    stems = list(region_nodes(G2, 2))
    for B in _powerset(region):
        B = frozenset(B)
        for stem in stems:
            beta = bushiness_numbers(B, G2, 2, stem)
            for n in (1, 2):
                assert (beta[stem] >= n) == brute_force_is_n_big(B, n, G2, stem, 2), \
                    (B, stem, n)


node_st = st.lists(st.integers(0, 2), max_size=3).map(tuple)
set_st = st.frozensets(node_st, max_size=10)


@given(set_st, st.sampled_from([(), (0,), (2,)]), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_marking_matches_brute_force_random(B, stem, n):
    assert is_n_big(B, n, G3, stem, 3) == brute_force_is_n_big(B, n, G3, stem, 3)


@given(set_st, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_bigness_monotone_in_n(B, n):
    if is_n_big(B, n + 1, G3, (), 3):
        assert is_n_big(B, n, G3, (), 3)


@given(set_st, set_st, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_bigness_monotone_in_set(B1, B2, n):
    if is_n_big(B1, n, G3, (), 3):
        assert is_n_big(B1 | B2, n, G3, (), 3)


# ---------------------------------------------------------------------------
# Witness trees.

def test_witness_tree_simple():
    B = {(0, 0), (0, 1), (1, 0), (1, 1), (2,)}
    w = witness_tree(B, 2, G3, (), 2)
    verify_bushy(w, 2, G3, exactly=True, leaves_in=frozenset(B))
    # lex-least greedy: children 0 and 1 of the root are picked
    assert (0,) in w.nodes and (1,) in w.nodes and (2,) not in w.nodes


def test_witness_tree_member_stem():
    w = witness_tree({(1,)}, 3, G3, (1,), 2)
    assert w.nodes == frozenset({(1,)})
    assert w.leaves() == frozenset({(1,)})


def test_witness_tree_requires_bigness():
    with pytest.raises(ValueError):
        witness_tree({(0,)}, 2, G3, (), 2)


@given(set_st, st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_witness_tree_always_verifies(B, n):
    if is_n_big(B, n, G3, (), 3):
        w = witness_tree(B, n, G3, (), 3)
        verify_bushy(w, n, G3, exactly=True, leaves_in=frozenset(B))


def test_verify_tree_shape_rejections():
    with pytest.raises(MalformedTree, match="stem missing"):
        verify_bushy(TreeWitness((), frozenset({(0,)})), 1, G3)
    with pytest.raises(MalformedTree, match="no parent"):
        verify_bushy(TreeWitness((), frozenset({(), (0, 0)})), 1, G3)  # orphan
    with pytest.raises(MalformedTree, match="does not extend the stem"):
        verify_bushy(TreeWitness((1,), frozenset({(1,), (0,)})), 1, G3)
    with pytest.raises(MalformedTree, match="not a valid string"):
        verify_bushy(TreeWitness((), frozenset({(), (4,)})), 1, G3)


def _reference_verify_bushy(witness, n, g, exactly=False, leaves_in=None):
    """Naive mirror of verify_bushy: one per-node loop for the shape (every
    node validated by g.validate_node), a children index, one per-node loop
    for the counts and a scan for the leaves."""
    stem, nodes = witness.stem, witness.nodes
    if stem not in nodes:
        raise MalformedTree("stem missing from node set")
    for node in nodes:
        if node[:len(stem)] != stem:
            raise MalformedTree(f"node {node} does not extend the stem")
        if not g.validate_node(node):
            raise MalformedTree(f"node {node} is not a valid string for g")
        if len(node) > len(stem) and node[:-1] not in nodes:
            raise MalformedTree(f"node {node} has no parent in the tree")
    children = {}
    for node in nodes:
        if len(node) > len(stem):
            children.setdefault(node[:-1], []).append(node)
    for node in nodes:
        k = len(children.get(node, ()))
        if k == 0:
            continue
        if k < n or (exactly and k != n):
            raise MalformedTree(
                f"internal node {node} has {k} children, wanted {'exactly' if exactly else 'at least'} {n}")
    if leaves_in is not None:
        stray = frozenset(node for node in nodes if node not in children) - leaves_in
        if stray:
            raise MalformedTree(f"leaves outside the target set: {sorted(stray)[:3]}")


def _verdict(check, witness, *args, **kwargs):
    try:
        check(witness, *args, **kwargs)
    except MalformedTree as exc:
        return str(exc)
    return None


@given(st.sampled_from([(), (0,), (2, 1)]),
       st.frozensets(st.lists(st.integers(-1, 4), max_size=4).map(tuple), max_size=12),
       st.sampled_from(["2,3,4", "3", "2;tail=3,1"]))
@settings(max_examples=200, deadline=None)
def test_tree_shape_matches_per_node_validation(stem, nodes, spec):
    g = OrderFunction.from_spec(spec)
    for witness in (TreeWitness(stem, nodes), TreeWitness(stem, nodes | {stem})):
        assert _verdict(verify_bushy, witness, 1, g) == \
            _verdict(_reference_verify_bushy, witness, 1, g)


@st.composite
def _bushy_instances(draw):
    """A witness tree, or a prefix-closed subset of a region, with nodes
    dropped and stray nodes (negative, off-stem, orphaned, out of range)
    added; then n, exactly and leaves_in for verify_bushy."""
    g = OrderFunction.from_spec(draw(st.sampled_from(["2,3,4", "3", "2;tail=3,1"])))
    stem = draw(st.sampled_from([(), (0,), (1, 1)]))
    n = draw(st.integers(1, 4))
    exactly = draw(st.booleans())
    region = list(region_nodes(g, 3, stem))
    picked = draw(st.frozensets(st.sampled_from(region), max_size=20))
    if draw(st.booleans()) and bushiness(picked, g, 3, stem) >= n:
        nodes = set(witness_tree(picked, n, g, stem, 3, exactly=draw(st.booleans())).nodes)
    else:
        nodes = {tau[:i] for tau in picked for i in range(len(stem), len(tau) + 1)}
        nodes.add(stem)
    if len(nodes) > 1:
        nodes -= draw(st.frozensets(st.sampled_from(sorted(nodes - {stem})), max_size=2))
    nodes |= draw(st.frozensets(st.lists(st.integers(-1, 4), max_size=4).map(tuple),
                                max_size=2))
    nodes = frozenset(nodes)
    leaves_in = draw(st.one_of(st.none(), st.just(nodes),
                               st.frozensets(st.sampled_from(sorted(nodes))),
                               st.frozensets(st.sampled_from(region), max_size=20)))
    return TreeWitness(stem, nodes), n, g, exactly, leaves_in


@given(_bushy_instances())
@settings(max_examples=400, deadline=None)
def test_verify_bushy_matches_naive_mirror(instance):
    witness, n, g, exactly, leaves_in = instance
    assert _verdict(verify_bushy, witness, n, g, exactly, leaves_in) == \
        _verdict(_reference_verify_bushy, witness, n, g, exactly, leaves_in)


def test_verify_bushy_at_the_fusion_scale():
    g = OrderFunction.constant(18)
    ambient = witness_tree(frozenset(level_nodes(g, 3)), 18, g, (), 3)
    assert len(ambient.nodes) == 6175
    verify_bushy(ambient, 18, g, exactly=True, leaves_in=ambient.leaves())
    leaf = max(ambient.leaves())
    for nodes, message in (
            (ambient.nodes - {leaf}, "internal node (17, 17) has 17 children"),
            (ambient.nodes | {(3, 1, 4, 1, 5)}, "node (3, 1, 4, 1, 5) has no parent"),
            (ambient.nodes | {(2, 18)}, "node (2, 18) is not a valid string")):
        witness = TreeWitness((), nodes)
        verdict = _verdict(verify_bushy, witness, 18, g, exactly=True)
        assert verdict == _verdict(_reference_verify_bushy, witness, 18, g, exactly=True)
        assert verdict.startswith(message)


def test_verify_bushy_counts():
    full = TreeWitness((), frozenset({(), (0,), (1,), (2,)}))
    verify_bushy(full, 3, G3, exactly=True)
    with pytest.raises(MalformedTree):
        verify_bushy(full, 4, G3)
    two = TreeWitness((), frozenset({(), (0,), (1,)}))
    verify_bushy(two, 2, G3, exactly=True)
    with pytest.raises(MalformedTree):
        verify_bushy(two, 2, G3, leaves_in=frozenset({(0,)}))
    with pytest.raises(MalformedTree):
        verify_bushy(full, 2, G3, exactly=True)  # three children, not exactly two


# ---------------------------------------------------------------------------
# Closure.

def test_closure_hand_vector():
    B = frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (2,)})
    starred = closure(B, 2, G3, 2)
    assert starred == B | {(), (0,), (1,)}
    verdict = closure_check(B, 2, G3, 2)
    assert isinstance(verdict, LemmaHolds)


def test_closure_contains_base():
    B = frozenset({(0,), (1, 1), (2, 0)})
    for n in (1, 2, 3):
        assert B <= closure(B, n, G3, 2)


def test_closure_pruning_bound():
    # nodes outside the closure have at most n-1 children inside it
    B = frozenset({(0, 0), (1, 0), (2, 0)})
    n = 2
    starred = closure(B, n, G3, 2)
    for tau in region_nodes(G3, 1):
        if tau in starred:
            continue
        inside = sum(1 for c in range(3) if tau + (c,) in starred)
        assert inside <= n - 1


@given(set_st, st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_closure_check_random(B, n):
    assert isinstance(closure_check(B, n, G3, 3), LemmaHolds)


# ---------------------------------------------------------------------------
# Union smallness lemma.

def test_union_smallness_hand_instance():
    # {(0,)} and {(1,)} are each 2-small; their union stays (2+2-1)-small
    assert not is_n_big({(0,)}, 2, G3, (), 2)
    assert not is_n_big({(0,), (1,)}, 3, G3, (), 2)


@given(set_st, set_st, st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_union_smallness_never_refuted(B1, B2, m, n):
    if not is_n_big(B1, m, G3, (), 3) and not is_n_big(B2, n, G3, (), 3):
        assert not is_n_big(B1 | B2, m + n - 1, G3, (), 3)


def brute_force_union_sweep(g, depth, pairs, stems=((),)):
    """The sweep's 2^N/3^N enumerator mirror, read like union_smallness_sweep."""
    return bushy._brute_force_sweep(
        g, depth, [(n, m, n + m - 1) for n, m in bushy._pair_list(pairs)], stems)


# The sweep's level counts against the 2^N/3^N enumerator on every region of
# fewer than 16 nodes.
ALL_PAIRS = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)]
SMALL_REGIONS = [
    ("2", 1, [()]), ("2", 2, [(), (1,)]), ("2", 3, [()]),
    ("3", 1, [()]), ("3", 2, [(), (0,), (2,)]),
    ("2,3", 2, [()]), ("2,4", 2, [()]),
]


@pytest.mark.parametrize("spec, depth, stems", SMALL_REGIONS)
def test_sweep_matches_brute_force(spec, depth, stems):
    g = OrderFunction.from_spec(spec)
    got = union_smallness_sweep(g, depth, ALL_PAIRS, stems)
    assert got == brute_force_union_sweep(g, depth, ALL_PAIRS, stems)
    assert got["counterexamples"] == []


@pytest.mark.parametrize("spec, depth, stems", [
    ("2", 2, [(), (1,)]), ("3", 1, [()]), ("3", 2, [(2,)]), ("2,3", 2, [()])])
def test_sweep_counts_lowered_targets(spec, depth, stems):
    # below n+m-1 the lemma fails, so the bad-split counts are nonzero
    g = OrderFunction.from_spec(spec)
    checks = [(n, m, n + m - 1 - lower) for n, m in ALL_PAIRS for lower in (1, 2)
              if n + m - 1 - lower >= 1]
    for stem in stems:
        widths = [g.value(d) for d in range(len(stem), depth)]
        for check in checks:
            naive = bushy._brute_force_sweep(g, depth, [check], [stem])
            assert bushy._big_unions(widths, check[2]) == naive["instances"]
            assert bushy._bad_splits(widths, *check) == len(naive["counterexamples"])
    got = bushy._sweep(g, depth, checks, stems)
    assert got["counterexamples"]
    assert got == bushy._brute_force_sweep(g, depth, checks, stems)


def test_sweep_golden_nineteen_nodes():
    # recorded from brute_force_union_sweep, which needs minutes per pair here
    g = OrderFunction.from_spec("2,2,3")
    assert region_size(g, 3) == 19
    for pair in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        assert union_smallness_sweep(g, 3, [pair]) == {
            "instances": 262144, "counterexamples": []}


def test_sweep_targets_past_every_width():
    # only unions holding the stem reach the target: 2^12 of the 13-node region
    out = union_smallness_sweep(G3, 2, [(100000, 100000)])
    assert out == {"instances": 4096, "counterexamples": []}
    # a member is big for every n: its BIG_CAP reaches targets past BIG_CAP too
    pairs = [(BIG_CAP, 1), (BIG_CAP, 2)]
    out = union_smallness_sweep(G3, 1, pairs)
    assert out == brute_force_union_sweep(G3, 1, pairs) == {
        "instances": 16, "counterexamples": []}
    assert union_smallness_sweep(G3, 2, [(2**40, 2**40)]) == {
        "instances": 4096, "counterexamples": []}


@pytest.mark.parametrize("n", [BIG_CAP, BIG_CAP + 1, 2**40])
@pytest.mark.parametrize("B", [{()}, {(1,)}, {(0,), (1,), (2,)}, {(), (0, 1)}, set()])
def test_bigness_past_the_member_cap_matches_brute_force(n, B):
    # "B is n-big above sigma when sigma is in B", for every n
    region = list(region_nodes(G3, 2))
    for stem in ((), (1,), (0, 1)):
        want = brute_force_is_n_big(B, n, G3, stem, 2)
        assert want == (stem in B)
        assert is_n_big(B, n, G3, stem, 2) == want, (stem, n)
        if want:
            assert witness_tree(B, n, G3, stem, 2).nodes == {stem}
        else:
            with pytest.raises(ValueError, match="is not"):
                witness_tree(B, n, G3, stem, 2)
    assert closure(B, n, G3, 2) == {tau for tau in region
                                    if brute_force_is_n_big(B, n, G3, tau, 2)} == B
    assert isinstance(closure_check(B, n, G3, 2), LemmaHolds)


def test_sweep_input_checks():
    # pair members are integers: int() would read (2.9, 2.2) as (2, 2), True as 1
    for pair in [(0, 2), (2.9, 2.2), (2.0, 2), (True, 2), (2, "2")]:
        with pytest.raises(ValueError, match="integers >= 1"):
            union_smallness_sweep(G3, 2, [pair])
    with pytest.raises(ValueError, match="integers >= 1"):
        brute_force_union_sweep(G3, 1, [(2, 2), (True, 2)])
    with pytest.raises(ValueError, match="not a valid string"):
        union_smallness_sweep(G3, 2, [(2, 2)], [(3,)])
    # a stem past the horizon is bad, valid or not
    with pytest.raises(ValueError, match="exceeds depth horizon"):
        union_smallness_sweep(G3, 1, [(2, 2)], [(5, 5)])
    with pytest.raises(CombinatorialBlowup):
        union_smallness_sweep(G3, 10**9, [(2, 2)])
    with pytest.raises(CombinatorialBlowup):  # within the node limit, not the work limit
        union_smallness_sweep(OrderFunction.constant(8191), 1, [(2, 2), (2, 3), (3, 2), (3, 3)])
    with pytest.raises(CombinatorialBlowup):
        brute_force_union_sweep(G3, 3, [(2, 2)])


# ---------------------------------------------------------------------------
# The region-size precheck.

@pytest.mark.parametrize("spec, depth, stem", [
    ("3", 2, ()), ("2", 3, (1,)), ("2,3,4", 3, ()), ("2,4", 2, (0, 1)), ("3", 1, (0, 0))])
def test_region_size_counts_region_nodes(spec, depth, stem):
    g = OrderFunction.from_spec(spec)
    assert region_size(g, depth, stem) == len(list(region_nodes(g, depth, stem)))


def test_region_limit_refuses_before_marking():
    g9 = OrderFunction.constant(9)
    assert region_size(OrderFunction.constant(18), 3) <= REGION_NODE_LIMIT
    with pytest.raises(CombinatorialBlowup, match=str(REGION_NODE_LIMIT)):
        region_size(g9, 10**9)
    with pytest.raises(CombinatorialBlowup):
        bushiness_numbers({(0,)}, g9, 12)
    with pytest.raises(CombinatorialBlowup):
        closure({(0,)}, 2, g9, 14)
    assert region_size(g9, 12, (0,) * 10) == 1 + 9 + 81


# ---------------------------------------------------------------------------
# Intersection bushiness inside an exact ambient tree.

def _pruned_full_tree(g, depth, keep):
    """Subtree of the full depth-`depth` tree keeping child values in `keep`."""
    nodes = {()}
    frontier = [()]
    while frontier:
        tau = frontier.pop()
        if len(tau) == depth:
            continue
        for c in keep:
            child = tau + (c,)
            nodes.add(child)
            frontier.append(child)
    return frozenset(nodes)


def test_intersection_bushiness_holds():
    k = 1
    ambient = TreeWitness((), _pruned_full_tree(G6, 2, range(6)))
    F = _pruned_full_tree(G6, 2, range(4))          # children 0..3: 4-bushy
    C = _pruned_full_tree(G6, 2, range(2, 6))       # children 2..5: 4-bushy
    v = intersection_bushiness_check(ambient, F, C, k, G6)
    assert isinstance(v, LemmaHolds)


def test_intersection_bushiness_preconditions():
    k = 1
    ambient = TreeWitness((), _pruned_full_tree(G6, 2, range(6)))
    thin = _pruned_full_tree(G6, 2, range(3))  # only 3-bushy
    ok = _pruned_full_tree(G6, 2, range(4))
    v = intersection_bushiness_check(ambient, thin, ok, k, G6)
    assert isinstance(v, PreconditionViolated)
    not_exact = TreeWitness((), _pruned_full_tree(G6, 2, range(5)))
    v2 = intersection_bushiness_check(not_exact, ok, ok, k, G6)
    assert isinstance(v2, PreconditionViolated)


def test_intersection_subtree_outside_the_ambient_tree():
    ambient = TreeWitness((), _pruned_full_tree(G6, 2, range(6)))
    ok = _pruned_full_tree(G6, 2, range(4))
    v = intersection_bushiness_check(ambient, ok, ok | {(0, 0, 0)}, 1, G6)
    assert v == PreconditionViolated("second subtree leaves the ambient tree")


def test_intersection_counterexample_names_its_node(monkeypatch):
    # two 4k-bushy subtrees of an exactly-6k tree always meet 2k-bushily, so
    # the 4k check is skipped to let a 3-bushy second subtree through
    real = bushy.verify_bushy
    monkeypatch.setattr(bushy, "verify_bushy",
                        lambda witness, n, g, **kw: None if n == 4 else real(witness, n, g, **kw))
    ambient = TreeWitness((), _pruned_full_tree(G6, 2, range(6)))
    first = _pruned_full_tree(G6, 2, range(4))
    # node (0,) keeps children 3..5, so only (0, 3) is shared below it
    second = first - {(0, 0), (0, 1), (0, 2)} | {(0, 4), (0, 5)}
    v = intersection_bushiness_check(ambient, first, second, 1, G6)
    assert v == CounterexampleWitness(
        "intersection fails to be 2-bushy: internal node (0,) has 1 children, wanted at least 2",
        TreeWitness((), first & second))


def _edited_mark(monkeypatch, edits):
    """bushy._mark with the beta value of each node in `edits` replaced."""
    real = bushy._mark

    def mark(*args):
        levels, rows = real(*args)
        return levels, tuple(tuple(edits.get(tau, v) for tau, v in zip(level, row))
                             for level, row in zip(levels, rows))
    monkeypatch.setattr(bushy, "_mark", mark)


@pytest.mark.parametrize("B, edits, detail", [
    # the closure law holds for every set, so each failure needs an edited marking
    ({(0,), (1,)}, {(1,): 0}, "members escaped the closure: [(1,)]"),
    ({(0,), (1,), (2,)}, {(): 0}, "node () outside the closure has 3 children inside"),
    ({(0,)}, {(): BIG_CAP}, "closure node () not in the base has only 1 children inside"),
])
def test_closure_check_counterexamples(monkeypatch, B, edits, detail):
    assert isinstance(closure_check(B, 2, G3, 1), LemmaHolds)
    _edited_mark(monkeypatch, edits)
    assert closure_check(B, 2, G3, 1) == CounterexampleWitness(detail)



# ---------------------------------------------------------------------------
# Marking with forbidden nodes, against a naive avoiding search.

def _brute_big_avoiding(B, A, n, g, stem, depth):
    """Whether B is n-big above stem by trees that touch no node of A."""
    def big(tau):
        if tau in A:
            return False
        if tau in B:
            return True
        if len(tau) >= depth:
            return False
        children = [tau + (c,) for c in range(g.value(len(tau)))]
        return any(all(big(c) for c in combo) for combo in combinations(children, n))

    return big(tuple(stem))


def test_avoiding_marking_matches_brute_force_exhaustively():
    region = list(region_nodes(G2, 2))
    for B in map(frozenset, _powerset(region)):
        for A in map(frozenset, _powerset(region)):
            beta = bushiness_numbers(B, G2, 2, avoid=A)
            for tau in region:
                for n in (1, 2):
                    assert (beta[tau] >= n) == _brute_big_avoiding(B, A, n, G2, tau, 2), \
                        (B, A, tau, n)


@given(set_st, set_st, st.sampled_from([(), (0,), (2,), (1, 1)]), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_avoiding_marking_matches_brute_force_random(B, A, stem, n):
    beta = bushiness_numbers(B, G3, 3, stem, avoid=A)
    big = beta[stem] >= n
    assert big == _brute_big_avoiding(B, A, n, G3, stem, 3)
    if big:
        w = witness_tree(B, n, G3, stem, 3, avoid=A)
        assert not w.nodes & A
        verify_bushy(w, n, G3, exactly=True, leaves_in=B - A)
    else:
        with pytest.raises(ValueError):
            witness_tree(B, n, G3, stem, 3, avoid=A)


def test_unmet_members_are_still_validated():
    # members off the stem are never met by the pass, yet must be valid
    with pytest.raises(ValueError, match="not a valid string"):
        bushiness_numbers({(1, 0), (0, 5)}, G3, 2, (1,))
    with pytest.raises(ValueError, match="exceeds depth"):
        bushiness_numbers({(1, 0), (0, 0, 0)}, G3, 2, (1,))
    assert bushiness_numbers({(1, 0), (0, 1), ()}, G3, 2, (1,))[(1,)] == 1
    # above an invalid stem the region itself is invalid, so nothing is met
    with pytest.raises(ValueError, match="not a valid string"):
        bushiness_numbers({(5, 0)}, G3, 2, (5,))


def test_marking_checks_its_stem():
    # a stem past the horizon has no region to mark, and an invalid stem
    # heads a region of invalid strings: neither is a verdict
    with pytest.raises(ValueError, match="exceeds depth horizon 1"):
        is_n_big({(0,)}, 1, G3, (0, 0), 1)
    with pytest.raises(ValueError, match=r"stem \(7,\) is not a valid string"):
        is_n_big({(0,)}, 3, G3, (7,), 2)
    with pytest.raises(ValueError, match="not a valid string"):
        witness_tree({(7, 0)}, 1, G3, (7,), 2)
    # the sweeps refuse a stem past the horizon too, valid or not
    with pytest.raises(ValueError, match="exceeds depth horizon"):
        brute_force_union_sweep(G3, 1, [(2, 2)], [(5, 5)])


def _reference_numbers(B, g, depth, stem, avoid):
    """The per-node reference kernel: enumerate each level with product and
    look every child up by its tuple."""
    beta = {}
    for d in range(depth, len(stem) - 1, -1):
        for suffix in product(*(range(g.value(i)) for i in range(len(stem), d))):
            tau = stem + suffix
            if tau in avoid:
                beta[tau] = 0
            elif tau in B:
                beta[tau] = BIG_CAP
            elif d == depth:
                beta[tau] = 0
            else:
                kids = sorted((beta[tau + (c,)] for c in range(g.value(d))), reverse=True)
                beta[tau] = max([i + 1 for i, v in enumerate(kids) if v >= i + 1], default=0)
    return beta


@st.composite
def _marking_instances(draw):
    """An order function whose widths change with the level, a valid stem,
    and random B and avoid inside the full region."""
    table = tuple(sorted(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))))
    tail_period = draw(st.integers(0, 2))
    tail_base = draw(st.integers(0, 4)) if tail_period else 0
    g = OrderFunction(table, tail_base, tail_period)
    depth = draw(st.integers(0, 3))
    stem = tuple(draw(st.integers(0, g.value(i) - 1))
                 for i in range(draw(st.integers(0, min(2, depth)))))
    region = list(region_nodes(g, depth))
    B = frozenset(draw(st.sets(st.sampled_from(region), max_size=24)))
    avoid = frozenset(draw(st.sets(st.sampled_from(region), max_size=6)))
    return g, depth, stem, B, avoid, draw(st.integers(1, 4))


@given(_marking_instances())
@settings(max_examples=150, deadline=None)
def test_marking_matches_reference_over_varying_widths(instance):
    g, depth, stem, B, avoid, n = instance
    beta = bushiness_numbers(B, g, depth, stem, avoid)
    expected = _reference_numbers(B, g, depth, stem, avoid)
    assert beta == expected and list(beta) == list(expected)
    assert closure(B, n, g, depth) == {
        tau for tau in region_nodes(g, depth) if brute_force_is_n_big(B, n, g, tau, depth)}
    assert is_n_big(B, n, g, stem, depth) == brute_force_is_n_big(B, n, g, stem, depth)
    twin = OrderFunction(g.table, g.tail_base, g.tail_period)
    assert twin == g and twin is not g
    assert bushiness_numbers(B, twin, depth, stem, avoid) == beta
    assert closure(B, n, twin, depth) == closure(B, n, g, depth)


@given(_marking_instances())
@settings(max_examples=100, deadline=None)
def test_kept_markings_answer_as_cold_ones(instance):
    # every reader alone from an empty cache, then all in a row, twice:
    # keys that differ only in avoid or the stem must not share an entry
    g, depth, stem, B, avoid, n = instance
    readers = [
        lambda: bushiness_numbers(B, g, depth, stem, avoid),
        lambda: bushiness_numbers(B, g, depth, stem),
        lambda: bushiness_numbers(B, g, depth, (), avoid),
        lambda: is_n_big(B, n, g, stem, depth),
        lambda: closure(B, n, g, depth),
        lambda: closure_check(B, n, g, depth),
    ]
    alone = []
    for read in readers:
        bushy._mark.cache_clear()
        alone.append(read())
    assert [read() for read in readers] == alone
    assert [read() for read in readers] == alone


def test_kept_markings_are_immutable():
    B = frozenset({(0, 0), (0, 1)})
    levels, rows = bushy._mark(B, G3, 2, (), frozenset())
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert bushy._mark(B, G3, 2, (), frozenset())[1] is rows
    assert bushiness_numbers(B, G3, 2)[(0,)] == 2


def test_invalid_members_raise_on_every_call():
    bushy._mark.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="not a valid string"):
            bushiness_numbers({(1, 0), (0, 5)}, G3, 2, (1,))
        with pytest.raises(ValueError, match="exceeds depth"):
            closure({(0, 0, 0)}, 1, G3, 2)


# ---------------------------------------------------------------------------
# The tree's children index and JSON form, against naive scans.

def _scanned_leaves(w):
    """The nodes no node longer than the stem names as its parent, collected
    in the node set's order."""
    parents = {x[:-1] for x in w.nodes if len(x) > len(w.stem)}
    return frozenset(x for x in w.nodes if x not in parents)


@given(set_st, st.integers(1, 3), st.sampled_from([(), (0,), (2, 1)]),
       st.frozensets(st.lists(st.integers(-1, 3), max_size=4).map(tuple), max_size=12))
@settings(max_examples=100, deadline=None)
def test_tree_index_matches_scans(B, n, stem, raw):
    # leaves() on sets that are not trees too: nodes no longer than the
    # stem, off-stem nodes, orphans; the order of iteration is kept as well
    for w in (TreeWitness(stem, raw), TreeWitness(stem, raw | {stem})):
        assert list(w.leaves()) == list(_scanned_leaves(w))
    if not is_n_big(B, n, G3, (), 3):
        return
    w = witness_tree(B, n, G3, (), 3, exactly=False)
    for tau in region_nodes(G3, 3):
        scan = sorted(x for x in w.nodes if len(x) == len(tau) + 1 and x[:-1] == tau)
        assert w.children_of(tau) == scan
    assert list(w.leaves()) == list(_scanned_leaves(w))
    assert decode_field("certificate", "witness", w.to_jsonable()) == w
