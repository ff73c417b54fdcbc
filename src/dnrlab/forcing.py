"""Forcing with bushy trees against finite functional tables.

A condition is a pair (stem, badset) over an order function g, with the
badset g(|stem|)-small above the stem.  Functionals are finite monotone
tables from strings to output bit strings whose domains are initial
segments of the naturals, so a node that decides output position m also
decides every earlier position.

The module builds the finite combinatorial objects of the density argument:

* C_m, the set of nodes deciding output position m, and its 7k/6k staging
  into exactly-6k-bushy totality trees avoiding the k-closure of the badset.
  C_m is read off output rows over the region index: each node's output,
  level by level, a tabled node's own and any other its parent's;
* Delta sets (nodes deciding position m with a given bit), every
  position's read off one pass over a tree, and the greedy fusion of many
  (position, bit) constraints, the nodes meeting fused constraints being
  the intersection of their Delta sets;
* the k-bushy zero-forcing tree of the no-fusion case, forced in one pass
  over the zero sides of those Delta sets;
* density_search, which turns a functional, a toy program index q, and a
  condition into a verdict: a non-totality extension, a diagonalizing
  extension with a replayable certificate built through the recursion
  theorem, or an honest budget report with the partial trace.

Searches are deterministic: ties break lexicographically, traces are plain
data, and every certificate embeds what a replay needs.

One point deserves a note because the staging is delicate: when fusing many
constraints, each candidate is judged on the nodes whose outputs agree with
all previously fused (position, bit) pairs.  Since domains are initial
segments, any node deciding a later position has decided all fused earlier
ones, so every prefix of the fused list was accepted in its turn, and
density_search reads its one 2k-bushy tree off the constraint set fusion
kept for the prefix it needs.  A search reads the Delta sets of its one
totality tree once; the zero tree reads them too, by the same fact: each
zero-tree leaf decides the last forced position, so it is a stage leaf of
that tree (see case2_zero_tree).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .asm import _template_index
from .bushy import (
    Node,
    OrderFunction,
    TreeWitness,
    _region_index,
    bushiness,
    bushiness_numbers,
    closure,
    is_n_big,
    verify_bushy,
    witness_tree,
)
from .machine import (
    ProgramIndex,
    domain_window,
    gamma_inverse,
    halted_value,
    self_reference,
    smn_fill,
)


class BignessUnavailable(Exception):
    """C_m failed to be 7k-big above `node` at output position m = `position`.

    The non-totality extension is then available there.  `c_m` is that
    C_m, `c_m_set(table, g, node, position)`, so the extension need not
    read it again.
    """

    def __init__(self, position: int, node: Node, c_m: frozenset[Node]) -> None:
        super().__init__(f"C_{position} is not 7k-big above {node}")
        self.position = position
        self.node = node
        self.c_m = c_m


@dataclass(frozen=True)
class SearchLimits:
    """Budgets for the machine-facing parts of the searches."""

    eval_budget: int = 100_000
    fixpoint_budget: int = 10_000


# ---------------------------------------------------------------------------
# Finite functionals.

_PARENT = itemgetter(slice(None, -1))


def _table_by_entry(depth: int, table: Iterable) -> dict[Node, tuple[int, ...]]:
    """The table as a dict from node to output, checked one entry at a time.

    Entries in order: a key no longer than `depth`, 0/1 output bits, a key
    not seen before; then, in table order, each output against that of its
    nearest tabled prefix.  The first offending entry raises ValueError.
    This is the naive mirror of `_table_at_once` and the loop that names
    the offender when one of its passes fails.
    """
    seen: dict[Node, tuple[int, ...]] = {}
    for node, out in table:
        if len(node) > depth:
            raise ValueError(f"table key {node} exceeds depth {depth}")
        if any(b not in (0, 1) for b in out):
            raise ValueError(f"output bits must be 0/1 at {node}")
        if node in seen:
            raise ValueError(f"duplicate table key {node}")
        seen[node] = out
    for node, out in seen.items():
        for cut in range(len(node) - 1, -1, -1):
            prefix = node[:cut]
            if prefix in seen:
                if seen[prefix] != out[:len(seen[prefix])]:
                    raise ValueError(
                        f"monotonicity violation: table({prefix}) is not a prefix of table({node})")
                break
    return seen


def _table_at_once(depth: int, table: tuple) -> Optional[dict[Node, tuple[int, ...]]]:
    """`_table_by_entry`'s dict, decided by passes over the whole table, or
    None when a pass fails (or trips on a malformed entry).

    Keys are unique when the dict is as long as the table; one max bounds
    their lengths and one set holds every output bit.  One pass compares
    each output with its parent's, looked up for all nodes at once; only a
    node whose parent is untabled walks up to its nearest tabled prefix.
    The root is its own parent here and agrees with itself.
    """
    try:
        seen = dict(table)
        if (len(seen) != len(table) or max(map(len, seen), default=0) > depth
                or not set(chain.from_iterable(seen.values())) <= {0, 1}):
            return None
        parent_outs = list(map(seen.get, map(_PARENT, seen)))
        if any([p is not None and p != out[:len(p)]
                for p, out in zip(parent_outs, seen.values())]):
            return None
        for node in [node for node, p in zip(seen, parent_outs) if p is None]:
            out = seen[node]
            for cut in range(len(node) - 2, -1, -1):
                prefix = seen.get(node[:cut])
                if prefix is not None:
                    if prefix != out[:len(prefix)]:
                        return None
                    break
    except (TypeError, ValueError):  # a malformed entry: the per-entry loop names it
        return None
    return seen


@dataclass(frozen=True)
class FiniteFunctional:
    """A finite monotone table from strings to 0/1 output strings.

    The output at a node is the table value of its longest tabled prefix
    (empty if none), so outputs are automatically monotone along extensions
    once the tabled entries are pairwise coherent, which construction
    verifies.  Output positions form an initial segment: the value at a node
    is a plain bit tuple.
    """

    depth: int
    table: tuple[tuple[Node, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth is a natural")
        table = tuple(self.table)
        seen = _table_at_once(self.depth, table)
        if seen is None:
            seen = _table_by_entry(self.depth, table)
        object.__setattr__(self, "table", tuple(sorted(seen.items())))
        object.__setattr__(self, "_by_node", seen)
        object.__setattr__(self, "_max_output_length",
                           max(map(len, seen.values()), default=0))

    @classmethod
    def from_entries(cls, depth: int, entries: Mapping[Node, Sequence[int]] |
                     Iterable[tuple[Node, Sequence[int]]]) -> "FiniteFunctional":
        if isinstance(entries, Mapping):
            return cls(depth, tuple(zip(map(tuple, entries.keys()),
                                        map(tuple, entries.values()))))
        return cls(depth, tuple((tuple(n), tuple(o)) for n, o in entries))

    @classmethod
    def constant(cls, depth: int, bits: Sequence[int]) -> "FiniteFunctional":
        """The functional outputting `bits` on every node, the root included."""
        return cls(depth, (((), tuple(bits)),))

    def output(self, node: Node) -> tuple[int, ...]:
        """Output bits at `node`: the value of its longest tabled prefix."""
        node = tuple(node)
        if len(node) > self.depth:
            raise ValueError(f"node {node} exceeds functional depth {self.depth}")
        by_node = self._by_node
        for cut in range(len(node), -1, -1):
            out = by_node.get(node[:cut])
            if out is not None:
                return out
        return ()

    def decided_length(self, node: Node) -> int:
        return len(self.output(node))

    def max_output_length(self) -> int:
        return self._max_output_length

    def to_jsonable(self) -> dict:
        return {"depth": self.depth,
                "entries": [[[*node], [*out]] for node, out in self.table]}

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "FiniteFunctional":
        """Inverse of to_jsonable; a badly shaped spec raises ValueError."""
        try:
            depth = data["depth"]
            entries = [(tuple(node), tuple(out)) for node, out in data["entries"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"a functional is {{depth, entries: [[node, bits], ...]}}: {exc}") from None
        values = list(chain.from_iterable(chain.from_iterable(entries)))
        if (type(depth) is not int or not set(map(type, values)) <= {int}
                or min(values, default=0) < 0):
            raise ValueError("functional depth, nodes and bits must be naturals")
        return cls(depth, tuple(entries))


# ---------------------------------------------------------------------------
# Conditions.

def _badset_horizon(stem: Node, badset: frozenset[Node]) -> int:
    return max([len(stem)] + [len(b) for b in badset])


@dataclass(frozen=True)
class ForcingCondition:
    """A stem with a badset that is g(|stem|)-small above it."""

    stem: Node
    badset: frozenset[Node]
    g: OrderFunction

    def __post_init__(self) -> None:
        object.__setattr__(self, "stem", tuple(self.stem))
        object.__setattr__(self, "badset", frozenset(tuple(b) for b in self.badset))
        if not self.g.validate_node(self.stem):
            raise ValueError(f"stem {self.stem} is not a valid string for g")
        horizon = _badset_horizon(self.stem, self.badset)
        bound = self.g(len(self.stem))
        if is_n_big(self.badset, bound, self.g, self.stem, horizon):
            raise ValueError(
                f"badset is {bound}-big above the stem, condition invalid")

    def smallness_degree(self) -> int:
        """Least k with the badset k-small above the stem."""
        horizon = _badset_horizon(self.stem, self.badset)
        return bushiness(self.badset, self.g, horizon, self.stem) + 1


# ---------------------------------------------------------------------------
# Delta sets and C_m.

def delta_sets(gamma_table: FiniteFunctional,
               tree: TreeWitness) -> list[tuple[frozenset[Node], frozenset[Node]]]:
    """The tree's Delta sets: entry m holds its nodes deciding output
    position m with bit 0 and with bit 1, one entry per tabled position.

    Each node's output is read once and the node filed under every
    (position, bit) pair it decides."""
    sides: list[tuple[list[Node], list[Node]]] = [
        ([], []) for _ in range(gamma_table.max_output_length())]
    for node in tree.nodes:
        for side, bit in zip(sides, gamma_table.output(node)):
            side[bit].append(node)
    return [(frozenset(zeros), frozenset(ones)) for zeros, ones in sides]


def c_m_set(gamma_table: FiniteFunctional, g: OrderFunction, stem: Node,
            m: int) -> frozenset[Node]:
    """All nodes above stem (within the table depth) deciding position m.

    Read off output rows over the region index, in region order: level by
    level, a tabled node's row entry is its own table value and any other
    node's is its parent's, which for the p-th node of a level of width w
    is the (p // w)-th entry of the row above.  Nothing is kept between
    calls.  A stem past the table depth gives the empty set, a stem not
    valid for g is a ValueError, and a region too large to index is
    refused (CombinatorialBlowup).
    """
    stem = tuple(stem)
    if len(stem) > gamma_table.depth:
        return frozenset()
    levels, widths = _region_index(g, gamma_table.depth, stem)
    by_node = gamma_table._by_node
    row = (gamma_table.output(stem),)
    rows = [row]
    for level, w in zip(levels[1:], widths):
        parents = chain.from_iterable(zip(*[row] * w))  # each entry w times
        row = tuple(map(by_node.get, level, parents))
        rows.append(row)
    return frozenset(compress(chain.from_iterable(levels),
                              [len(out) > m for out in chain.from_iterable(rows)]))


def _c_m_minimal(cm: frozenset[Node], stem: Node) -> frozenset[Node]:
    """Minimal members of C_m above stem: those whose parent lies outside it.

    Domains are initial segments, so every extension of a member decides
    position m too."""
    n = len(stem)
    return frozenset([node for node in cm if len(node) == n or node[:-1] not in cm])


# ---------------------------------------------------------------------------
# Totality trees.

def _badset_closure(badset: frozenset[Node], k: int, g: OrderFunction, depth: int) -> frozenset[Node]:
    """The badset's k-closure to the deeper of depth and its own horizon,
    badset included: the nodes every tree built for the condition avoids."""
    if not badset:
        return frozenset()
    return closure(badset, k, g, max(depth, *map(len, badset)))


def build_totality_tree(gamma_table: FiniteFunctional, tau: Node, k: int,
                        target_len: int, avoid: frozenset[Node],
                        g: OrderFunction) -> TreeWitness:
    """Exactly-6k-bushy tree above tau whose leaves decide positions < target_len.

    Stages m = 0, 1, ... extend every leaf not yet deciding position m by an
    exactly-6k graft with leaves in C_m, all nodes outside `avoid` (the
    badset's k-closure, closed once by `density_search`).  Raises
    BignessUnavailable(m, rho, C_m) when C_m fails to be 7k-big above a
    leaf rho, which is exactly when the non-totality extension (rho, badset
    plus C_m) is available.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    tau = tuple(tau)
    depth = gamma_table.depth
    if tau in avoid:
        raise ValueError(f"stem {tau} lies in the badset closure")
    nodes: set[Node] = {tau}
    leaves = [tau]
    for m in range(target_len):
        new_leaves: list[Node] = []
        for rho in sorted(leaves):
            if gamma_table.decided_length(rho) > m:
                new_leaves.append(rho)
                continue
            cm = c_m_set(gamma_table, g, rho, m)
            if not is_n_big(cm, 7 * k, g, rho, depth):
                raise BignessUnavailable(m, rho, cm)
            # C_m is 7k-big and `avoid` k-small: the pruning lemma leaves 6k
            graft = witness_tree(cm, 6 * k, g, rho, depth, avoid=avoid)
            nodes.update(graft.nodes)
            new_leaves.extend(graft.leaves())
        leaves = new_leaves
    tree = TreeWitness(tau, frozenset(nodes))
    verify_bushy(tree, 6 * k, g, exactly=True)
    return tree


# ---------------------------------------------------------------------------
# Fusion.

def fusion_step(deltas: Sequence[tuple[frozenset[Node], frozenset[Node]]], tau: Node, k: int,
                big_inputs: Sequence[tuple[int, int]], g: OrderFunction, depth: int,
                avoid: frozenset[Node]) -> tuple[list[tuple[int, int]], list[frozenset[Node]]]:
    """Greedily fuse (position, bit) constraints above tau within a tree.

    `deltas` are the tree's Delta sets (`delta_sets`), so the tree's nodes
    meeting a list of constraints are the intersection of their Delta sets.
    Each listed (m, i) must come with Delta_{m,i} 4k-big above tau (checked).
    Constraints are accepted in the given order as long as the intersection
    stays 2k-big above tau by trees outside `avoid` (as in
    `build_totality_tree`).  Returns the accepted pairs and, for each, the
    constraint set of the fused prefix ending with it: every prefix was
    accepted in its turn, so its set is 2k-big for `witness_tree` to read off.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    tau = tuple(tau)
    for m, i in big_inputs:
        if not is_n_big(deltas[m][i], 4 * k, g, tau, depth):
            raise ValueError(
                f"precondition failed: Delta at ({m}, {i}) is not {4 * k}-big above {tau}")
    if tau in avoid:
        raise ValueError(f"stem {tau} lies in the badset closure")
    fused: list[tuple[int, int]] = []
    kept: list[frozenset[Node]] = []
    for m, i in big_inputs:
        candidate = kept[-1] & deltas[m][i] if kept else deltas[m][i]
        if bushiness(candidate, g, depth, tau, avoid) >= 2 * k:
            fused.append((m, i))
            kept.append(candidate)
    # the first input is 4k-big and the closure k-small: 3k >= 2k remain
    assert fused or not big_inputs, "pruning lemma violated"
    return fused, kept


# ---------------------------------------------------------------------------
# Case 2: zero forcing.

def case2_zero_tree(gamma_table: FiniteFunctional, stem: Node,
                    zero_sides: Sequence[frozenset[Node]], k: int, count: int,
                    avoid: frozenset[Node], g: OrderFunction) -> tuple[TreeWitness, list[int]]:
    """k-bushy tree above stem forcing up to `count` output positions to 0.

    `zero_sides` are the zero sides of the Delta sets (`delta_sets`) of
    `build_totality_tree`'s tree above the stem through every tabled
    position, with this k and `avoid`.  Stage j picks the least admissible
    position n_j (one past the previous): above every current leaf, the
    zero side at n_j is 2k-big (read off one marking of it above the stem),
    and the leaf takes a k-bushy graft with leaves in it (the zero side cut
    to the leaf's own nodes, so the marking validates no others), all nodes
    outside `avoid`.
    The pass stops at the first stage with no admissible position and
    returns the tree with the zeros forced so far, which may be none.
    Stages are deterministic, so the first j stages of any run are those of
    a run asked for j.

    The zero side equals that of a totality tree grown afresh above each
    leaf.  Every leaf decides the last forced position, so it lies in no
    earlier stage's graft: it is a stage leaf of the totality tree, which
    above it repeats a fresh tree's stages (same C_m, graft and `avoid`).
    The nodes added after stage n descend from leaves already deciding n,
    so they change no marking value the 2k test or the graft reads.  Hence
    C never fails its 7k-bigness here: BignessUnavailable cannot arise.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    depth = gamma_table.depth
    stem = tuple(stem)
    nodes: set[Node] = {stem}
    leaves: list[Node] = [stem]
    zeros: list[int] = []
    for _ in range(count):
        floor = zeros[-1] + 1 if zeros else 0
        for position in range(floor, len(zero_sides)):
            zero_delta = zero_sides[position]
            beta = bushiness_numbers(zero_delta, g, depth, stem)
            if all(beta[rho] >= 2 * k for rho in leaves):
                break  # the position is admissible
        else:
            break  # no admissible position: stop with the zeros forced so far
        grafts = [witness_tree(frozenset(n for n in zero_delta if n[:len(rho)] == rho),
                               k, g, rho, depth, avoid=avoid) for rho in sorted(leaves)]
        for graft in grafts:
            nodes.update(graft.nodes)
        leaves = [leaf for graft in grafts for leaf in graft.leaves()]
        zeros.append(position)
    tree = TreeWitness(stem, frozenset(nodes))
    verify_bushy(tree, k, g)
    for leaf in tree.leaves():
        bits = gamma_table.output(leaf)
        assert all(n < len(bits) and bits[n] == 0 for n in zeros), "zero forcing lost"
        assert leaf not in avoid
    return tree, zeros


# ---------------------------------------------------------------------------
# Density search.

@dataclass(frozen=True)
class NonTotalExt:
    """Extension forcing the functional to stay partial past position m."""

    condition: ForcingCondition
    m: int
    certificate: dict
    trace: tuple = ()


@dataclass(frozen=True)
class DiagonalExt:
    """Extension with a diagonalizing r.e.-set certificate."""

    condition: ForcingCondition
    certificate: dict
    trace: tuple = ()


@dataclass(frozen=True)
class BudgetExceeded:
    """The search could not close either case at this scale."""

    reason: str
    trace: tuple = ()


DensityVerdict = NonTotalExt | DiagonalExt | BudgetExceeded


def _lengthen_stem(stem: Node, target_length: int, avoid: frozenset[Node],
                   g: OrderFunction) -> Node:
    tau = tuple(stem)
    while len(tau) < target_length:
        for c in range(g.value(len(tau))):
            if tau + (c,) not in avoid:
                tau = tau + (c,)
                break
        else:
            raise AssertionError("closure property violated: no child escapes")
    return tau


# The self-referential enumerator behind the diagonal indices.  Input
# pair(u, pair(i, n)): derive e_0, e_1 from u by s-m-n, run q on both, set
# c = min(2 max + 1, cap), select the c-th packed mask of A_i (base K
# digits), and halt exactly when bit n of that mask is set.  The driver is
# assembled once; each call of `_master_driver` splices q, A_0, A_1, K and
# the cap into its `load` instructions.
_MASTER_DRIVER = """
    # input pair(u, pair(i, n)); r6 stays 0 and serves as constant zero
    left r1, r0            # u
    right r2, r0           # pair(i, n)
    left r3, r2            # i
    right r4, r2           # n
    smn r5, r1, r6         # e_0
    load r7, 1
    smn r8, r1, r7         # e_1
    load r9, {q}
    univ r10, r9, r5       # q(e_0)
    univ r11, r9, r8       # q(e_1)
    sub r12, r10, r11
    add r13, r11, r12      # m = max(q(e_0), q(e_1))
    add r13, r13, r13
    load r12, 1
    add r13, r13, r12      # 2m + 1
    load r12, {cap}
    sub r14, r13, r12
    jz r14, capped
    mov r13, r12           # c = min(2m + 1, cap)
capped:
    load r12, {a0}
    jz r3, selected
    load r12, {a1}
selected:
    load r15, {big_k}
unpack:
    jz r13, extract        # mask = (A_i div K^c) mod K
    div r12, r12, r15
    load r14, 1
    sub r13, r13, r14
    jmp unpack
extract:
    mod r12, r12, r15
    load r15, 2
probe:
    jz r4, test            # bit n of the mask
    div r12, r12, r15
    load r14, 1
    sub r4, r4, r14
    jmp probe
test:
    mod r12, r12, r15
    jz r12, stuck
    halt r6
stuck:
"""
_master_driver = _template_index(_MASTER_DRIVER)


def _diagonal_pair(q: ProgramIndex, fused: Sequence[tuple[int, int]], horizon: int,
                   fixpoint_budget: int) -> tuple[ProgramIndex, ProgramIndex]:
    """The recursion-theorem pair e_0, e_1 that diagonalizes q against the
    fused list, with cap = len(fused).

    A_i packs, for each count c, the mask of the side-i positions among the
    first c fused pairs as the c-th base-K digit, K = 2^horizon.
    """
    big_k = 1 << horizon
    a = [0, 0]
    for c in range(len(fused) + 1):
        for side in (0, 1):
            a[side] += gamma_inverse(m for m, i in fused[:c] if i == side) * big_k ** c
    driver = _master_driver(q=q, a0=a[0], a1=a[1], big_k=big_k, cap=len(fused))
    e_star = self_reference(driver, fixpoint_budget)
    return smn_fill(e_star, 0), smn_fill(e_star, 1)


def density_search(gamma_table: FiniteFunctional, q: ProgramIndex,
                   cond: ForcingCondition,
                   limits: SearchLimits = SearchLimits()) -> DensityVerdict:
    """Find an extension of cond deciding the (gamma_table, q) requirement.

    Returns NonTotalExt when some C_m is 7k-small above a reachable node (the
    extension forces the functional partial), DiagonalExt when a fused or
    zero-forced tree plus a recursion-theorem index pair diagonalizes against
    q (certificate included), and BudgetExceeded with the partial trace when
    the finite table sustains neither.
    """
    # at call time: certs imports this module, and is fully loaded before any call runs
    from .certs import certificate

    g = cond.g
    trace: list = []

    def fail(reason: str, step_reason: Optional[str] = None, **extra) -> BudgetExceeded:
        trace.append({"step": "fail", "reason": step_reason or reason, **extra})
        return BudgetExceeded(reason, tuple(trace))

    k = cond.smallness_degree()
    trace.append({"step": "close_badset", "k": k})
    depth = gamma_table.depth
    level = g.first_level_with(8 * k)
    if level is None:
        return fail(f"order function never reaches {8 * k}")
    target_length = max(level, len(cond.stem))
    if target_length > depth:
        return fail("table too shallow for the required stem length",
                    f"needed stem length {target_length} exceeds table depth {depth}")
    # the one closure of the badset: every tree below avoids it
    avoid = _badset_closure(cond.badset, k, g, depth)
    tau0 = _lengthen_stem(cond.stem, target_length, avoid, g)
    trace.append({"step": "lengthen_stem", "stem": list(tau0), "width_bound": 8 * k})
    target_len = max(gamma_table.max_output_length(), 1)

    try:
        totality = build_totality_tree(gamma_table, tau0, k, target_len, avoid, g)
    except BignessUnavailable as exc:
        m, node = exc.position, exc.node
        cm_min = _c_m_minimal(exc.c_m, node)
        cert = certificate("non_total_extension", g=g, functional=gamma_table, k=k,
                           stem=node, m=m, smallness_bound=7 * k, c_m_minimal=cm_min,
                           badset_before=cond.badset)
        trace.append({"step": "non_total_extension", "m": m, "stem": list(node)})
        return NonTotalExt(ForcingCondition(node, cond.badset | cm_min, g), m, cert,
                           tuple(trace))
    trace.append({"step": "totality_tree", "target_len": target_len,
                  "size": len(totality.nodes)})

    # Delta sets are judged within the constructed tree: the case split is
    # whether the deciding level carries a >= 4k majority for one bit
    deltas = delta_sets(gamma_table, totality)
    big_inputs: list[tuple[int, int]] = []
    for m, sides in enumerate(deltas):
        for i in (0, 1):
            if is_n_big(sides[i], 4 * k, g, tau0, depth):
                big_inputs.append((m, i))
                break
    trace.append({"step": "big_inputs", "pairs": [list(p) for p in big_inputs]})

    def finish(tree: TreeWitness, bushiness: int, fused: Sequence[tuple[int, int]],
               e0: int, e1: int, v0: int, v1: int, cap: int, label: str) -> DensityVerdict:
        """The diagonal extension on `fused`, already cut to its c pairs."""
        m_val = max(v0, v1)
        sides = [frozenset(m for m, i in fused if i == bit) for bit in (0, 1)]
        winner = 0 if len(sides[0]) > m_val else 1
        w_win = sides[winner]
        # fusion hands over 2m + 1 pairs at distinct positions, the zero tree m + 1 zeros
        assert len(w_win) > m_val, "pigeonhole violated"
        e_win = (e0, e1)[winner]
        if domain_window(e_win, target_len, limits.eval_budget) != w_win:
            return fail("enumeration audit failed at this budget")
        leaf = min(tree.leaves())
        cert = certificate(
            "diagonal_extension", case=label, g=g, functional=gamma_table, k=k, tau=tau0,
            tree=tree, tree_bushiness=bushiness, fused=fused, e0=e0, e1=e1, q=q,
            q_values=[v0, v1], m=m_val, c=len(fused), cap=cap, winner=winner,
            w_winner=sorted(w_win), position_horizon=target_len,
            eval_budget=limits.eval_budget, fixpoint_budget=limits.fixpoint_budget,
            badset=cond.badset, new_stem=leaf)
        trace.append({"step": "diagonal_extension", "case": label, "c": len(fused),
                      "winner": winner, "stem": list(leaf)})
        return DiagonalExt(ForcingCondition(leaf, cond.badset, g), cert, tuple(trace))

    def diagonal_indices(fused: Sequence[tuple[int, int]]):
        """(e0, e1, q(e0), q(e1)) for the fused list, or BudgetExceeded."""
        e0, e1 = _diagonal_pair(q, fused, target_len, limits.fixpoint_budget)
        v0 = halted_value(q, e0, limits.eval_budget)
        v1 = halted_value(q, e1, limits.eval_budget)
        if v0 is None or v1 is None:
            return fail("q not total on the diagonal indices")
        return e0, e1, v0, v1

    if big_inputs:
        fused, kept = fusion_step(deltas, tau0, k, big_inputs, g, depth, avoid)
        cap = len(fused)
        trace.append({"step": "fusion", "achieved": cap,
                      "fused": [list(p) for p in fused]})
        found = diagonal_indices(fused)
        if isinstance(found, BudgetExceeded):
            return found
        e0, e1, v0, v1 = found
        c = 2 * max(v0, v1) + 1
        if c <= cap:
            fused = fused[:c]  # accepted in its turn, so 2k-big
            tree = witness_tree(kept[c - 1], 2 * k, g, tau0, depth, avoid=avoid)
            # an all-zero prefix of 2m + 1 pairs holds more than m zeros
            label = "case2" if all(i == 0 for _, i in fused) else "case1"
            return finish(tree, 2 * k, fused, e0, e1, v0, v1, cap, label)
        trace.append({"step": "fusion_short", "achieved": cap, "needed": c})

    # Case 2: force zeros with a k-bushy tree, as many as the stages sustain
    zero_sides = [zero for zero, _ in deltas]
    zeros_tree, zeros = case2_zero_tree(gamma_table, tau0, zero_sides, k, target_len, avoid, g)
    if not zeros:
        return fail("no zero-forcing tree at any count")
    trace.append({"step": "zero_tree", "zeros": zeros})
    found = diagonal_indices([(n, 0) for n in zeros])
    if isinstance(found, BudgetExceeded):
        return found
    e0, e1, v0, v1 = found
    m_val = max(v0, v1)
    cap = len(zeros)
    if cap < m_val + 1:
        return fail("zero capacity below the q bound", capacity=cap, needed=m_val + 1)
    c = min(2 * m_val + 1, cap)
    if c < cap:
        zeros_tree, zeros = case2_zero_tree(gamma_table, tau0, zero_sides, k, c, avoid, g)
    return finish(zeros_tree, k, [(n, 0) for n in zeros], e0, e1, v0, v1, cap, "case2")

