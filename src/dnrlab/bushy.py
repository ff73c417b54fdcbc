"""Bushy-tree combinatorics over finitely branching string spaces.

Strings are tuples of naturals; a node tau is valid for an order function g
when tau[i] < g(i) for every position i.  For a set B of strings and a stem
sigma, B is n-big above sigma (within a depth horizon) when sigma is in B,
or at least n immediate children of sigma have B n-big above them; n-small
means not n-big.  Members of B certify only nodes they weakly extend: a
strict prefix of sigma in B never makes B big above sigma.

The workhorse is the marking.  A region, the valid nodes above a stem up
to the depth horizon, is indexed once per (g, depth, stem): its levels of
node tuples, in lexicographic order, so that the children of the j-th node
of a level are the j-th slice of the level below.  A marking is then one
bottom-up pass over rows of ints, giving every node tau the largest n such
that B is n-big above tau (BIG_CAP for members), optionally with a set of
forbidden nodes.  The pass is also where string sets and stems are
validated.  `bushiness` reads the stem's value, `bushiness_numbers` the
whole table as a dict keyed by the index's tuples; bigness queries,
closures, `closure_check` and greedy witness extraction
(`witness_tree`) all read off the rows or that table, and regions are
listed from the index too (`level_nodes`, `region_nodes`).  The last few
markings are kept, so a set asked for its closure, its closure check and
its bigness is marked once.
`brute_force_is_n_big` is the deliberately naive mirror: a top-down
existential search over n-subsets of children, kept free of the index and
the production shortcuts so the two can be played against each other in
tests.  Every region first has its node count checked (`region_size`).

The union-smallness sweep counts instead of enumerating: it works up the
levels of a region once, counting subsets and splits by the bigness they
give a node, and `_brute_force_sweep` keeps the 2^N/3^N enumerator as
its mirror.

Trees (`TreeWitness`) are checked by `verify_bushy` with set operations
over the whole node set and one count of parents; only a tree that fails
is walked node by node, to name the offending node.  A tree keeps what is
derived from it (its parent counts, and each exactly-n verdict the fusion
check asked for), so the fusion check verifies an ambient tree once per
object, and subtrees shown to lie inside it get the shape and count checks
only: their strings are the ambient's.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from functools import cached_property, lru_cache
from itertools import chain, combinations, compress, filterfalse, zip_longest
from math import comb, prod
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from ._value import _set_field, _Value
from .errors import CombinatorialBlowup

Node = tuple[int, ...]
Levels = tuple[tuple[Node, ...], ...]  # a region's nodes, level by level from the stem

# Bushiness number of members of B, which are n-big for every n: queries compare
# beta with min(n, BIG_CAP), which no non-member's beta (at most a width) reaches.
BIG_CAP = 2**30
# Largest region (nodes above a stem within the horizon) that marking and
# the sweep take on; the fusion ambient at k = 3, depth 3 has 6175.
REGION_NODE_LIMIT = 1 << 13
BRUTE_FORCE_NODE_LIMIT = 20  # the naive sweep walks 3^N splits
# Child-count states the sweep may step through, summed over levels and
# pairs (see _non_member_states): a few seconds of counting at most.
SWEEP_WORK_LIMIT = 2 * 10**6
_SPEC = re.compile(r"([0-9]+(?:,[0-9]+)*)(?:;tail=([0-9]+),([0-9]+))?")


class MalformedTree(ValueError):
    """A node set that does not form a tree of the claimed shape."""


class OrderFunction(_Value):
    """Branching widths by level: an explicit table, then a slow linear tail.

    value(n) = table[n] for n < len(table); past the table the value is
    max(table[-1], tail_base + (n - len(table)) // tail_period), or stays at
    table[-1] forever when tail_period == 0.  Values are >= 2 and
    nondecreasing, so deeper levels never get narrower.
    """

    def __init__(self, table: tuple[int, ...], tail_base: int = 0, tail_period: int = 0) -> None:
        if not table:
            raise ValueError("order function needs at least one table entry")
        if any(v < 2 for v in table):
            raise ValueError("branching widths must be >= 2")
        if any(a > b for a, b in zip(table, table[1:])):
            raise ValueError("branching widths must be nondecreasing")
        if tail_period < 0 or tail_base < 0:
            raise ValueError("tail parameters are naturals")
        _set_field(self, "table", table)
        _set_field(self, "tail_base", tail_base)
        _set_field(self, "tail_period", tail_period)

    @cached_property
    def _hash(self) -> int:
        """The field tuple's hash, kept: every region and marking cache
        lookup hashes its order function."""
        return hash((self.table, self.tail_base, self.tail_period))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def constant(cls, width: int) -> "OrderFunction":
        return cls((width,))

    @classmethod
    def from_spec(cls, spec: str) -> "OrderFunction":
        """Parse "v0,v1,...[;tail=base,period]" (a bare "v" is constant v);
        every number is written in ASCII decimal digits."""
        match = _SPEC.fullmatch(spec) if isinstance(spec, str) else None
        if match is None:
            raise ValueError('expected "v0,v1,...[;tail=base,period]" in ASCII digits')
        head, base, period = match.groups()
        return cls(tuple(int(v) for v in head.split(",")), int(base or 0), int(period or 0))

    def to_spec(self) -> str:
        head = ",".join(str(v) for v in self.table)
        if self.tail_period == 0:
            return head
        return f"{head};tail={self.tail_base},{self.tail_period}"

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("levels are naturals")
        if n < len(self.table):
            return self.table[n]
        if self.tail_period == 0:
            return self.table[-1]
        return max(self.table[-1], self.tail_base + (n - len(self.table)) // self.tail_period)

    __call__ = value

    def validate_node(self, node: Node) -> bool:
        return all(0 <= v < self.value(i) for i, v in enumerate(node))

    def first_level_with(self, width: int) -> Optional[int]:
        """Least level n with value(n) >= width, or None if there is none."""
        for n, v in enumerate(self.table):
            if v >= width:
                return n
        if self.tail_period == 0:
            return None
        # past the table, value(n) >= width iff (n - len) // period >= width - base
        return len(self.table) + max(0, width - self.tail_base) * self.tail_period


def region_size(g: OrderFunction, depth: int, stem: Node = (),
                limit: int = REGION_NODE_LIMIT) -> int:
    """Number of nodes region_nodes(g, depth, stem) yields, counted level by
    level without enumerating them.  Raises CombinatorialBlowup as soon as
    the count passes `limit`, so any depth returns at once (widths are at
    least 2, so each level holds at least twice the nodes of the one above).
    """
    total, level = 0, 1
    for d in range(len(stem), depth + 1):
        total += level
        if total > limit:
            raise CombinatorialBlowup(
                f"region above {stem} to depth {depth} has more than {limit} nodes")
        level *= g.value(d)
    return total


def _string_set(B: Iterable[Node]) -> frozenset[Node]:
    return B if isinstance(B, frozenset) else frozenset(tuple(node) for node in B)


def validate_string_set(B: Iterable[Node], g: OrderFunction, depth: int) -> frozenset[Node]:
    B = _string_set(B)
    for node in B:
        if len(node) > depth:
            raise ValueError(f"member {node} exceeds depth horizon {depth}")
        if not g.validate_node(node):
            raise ValueError(f"member {node} is not a valid string for g")
    return B


def _check_stem(g: OrderFunction, depth: int, stem: Node, limit: int) -> int:
    """Size of the region above stem, as `_region_index` checks it: at most
    `limit` nodes, and a stem within the depth and valid for g."""
    size = region_size(g, depth, stem, limit)
    if len(stem) > depth:
        raise ValueError(f"stem {stem} exceeds depth horizon {depth}")
    if not g.validate_node(stem):
        raise ValueError(f"stem {stem} is not a valid string for g")
    return size


# Callers revisit few regions (the library workloads of bench/ touch 10 to
# 13), and a cached region holds up to REGION_NODE_LIMIT node tuples, about
# a megabyte, so the cache stays small.
@lru_cache(maxsize=16)
def _region_index(g: OrderFunction, depth: int, stem: Node) -> tuple[Levels, tuple[int, ...]]:
    """The region above stem, indexed once per (g, depth, stem).

    Returns the levels from the stem down, each level's nodes in
    lexicographic order, and each level's branching width w, so the
    children of the j-th node of a level are the slice [j*w, (j+1)*w) of
    the level below.  Raises CombinatorialBlowup for a region above
    REGION_NODE_LIMIT nodes, and ValueError for a stem longer than the depth
    or not a valid string for g.
    """
    _check_stem(g, depth, stem, REGION_NODE_LIMIT)
    widths = tuple(g.value(d) for d in range(len(stem), depth))
    levels = [(stem,)]
    for w in widths:
        levels.append(tuple(tau + (c,) for tau in levels[-1] for c in range(w)))
    return tuple(levels), widths


def level_nodes(g: OrderFunction, depth: int) -> tuple[Node, ...]:
    """All valid nodes of length exactly depth, in lexicographic order: the
    horizon level of the region index."""
    if depth < 0:
        return ()
    return _region_index(g, depth, ())[0][-1]


def region_nodes(g: OrderFunction, depth: int, stem: Node = ()) -> Iterator[Node]:
    """All valid nodes of length in [len(stem), depth] weakly extending stem,
    level by level: the region index's levels chained."""
    stem = tuple(stem)
    if depth < len(stem):
        return iter(())
    return chain.from_iterable(_region_index(g, depth, stem)[0])


# Exceptions are not cached: a set with an invalid member raises on every call.
@lru_cache(maxsize=8)
def _mark(B: frozenset[Node], g: OrderFunction, depth: int, stem: Node,
          avoid: frozenset[Node]) -> tuple[Levels, tuple[tuple[int, ...], ...]]:
    """The region's levels and one row of beta values per level, stem first.

    Members get BIG_CAP, nodes at the horizon and nodes in `avoid` 0, and
    any other node the h-index of its child slice: the largest n with at
    least n children of beta >= n.  Members the pass does not meet are
    validated, so a set is checked once, here.  The rows are tuples, so a
    cached marking cannot be changed by a caller.
    """
    levels, widths = _region_index(g, depth, stem)
    rows: list[tuple[int, ...]] = []  # from the horizon up
    met = 0
    for i in range(len(levels) - 1, -1, -1):
        row = [BIG_CAP if tau in B else 0 for tau in levels[i]]
        met += row.count(BIG_CAP)
        if rows:  # above the horizon: h-indices of the child slices
            below, w = rows[-1], widths[i]
            for j, v in enumerate(row):
                if v:
                    continue
                kids = below[j * w:(j + 1) * w]
                top = max(kids)
                if top <= 1:
                    row[j] = top  # the h-index of 0s and 1s is their maximum
                    continue
                h = 0
                for x in sorted(kids, reverse=True):
                    if x <= h:
                        break
                    h += 1
                row[j] = h
        if avoid:
            row = [0 if tau in avoid else v for tau, v in zip(levels[i], row)]
        rows.append(tuple(row))
    rows.reverse()
    if met < len(B):
        k = len(stem)
        validate_string_set(
            [node for node in B if node[:k] != stem or len(node) > depth
             or not g.validate_node(node)], g, depth)
    return levels, tuple(rows)


def bushiness(B: Iterable[Node], g: OrderFunction, depth: int, stem: Node = (),
              avoid: frozenset[Node] = frozenset()) -> int:
    """beta(stem): the largest n such that B is n-big above stem (see
    `bushiness_numbers`)."""
    return _mark(_string_set(B), g, depth, tuple(stem), frozenset(avoid))[1][0][0]


def bushiness_numbers(B: Iterable[Node], g: OrderFunction, depth: int,
                      stem: Node = (), avoid: frozenset[Node] = frozenset()) -> dict[Node, int]:
    """beta(tau) for every tau in the region above stem, deepest level first.

    beta(tau) is the largest n such that B is n-big above tau within the
    horizon (BIG_CAP when tau is a member).  The region is indexed once per
    (g, depth, stem), level by level, so a marking is one bottom-up pass
    over rows of ints: a non-member's beta is the h-index of its children's,
    read from a slice of the row below.  Nodes in `avoid` are forbidden
    outright (beta 0, members included), so the table then measures
    bigness by trees that avoid them.  The keys are the index's own node
    tuples, lexicographic within a level.

    This pass is where a string set is validated: every member it meets is
    a valid string within the horizon, so only the members it does not
    meet are checked.  A stem longer than the depth or not valid for g is a
    ValueError, and a region above REGION_NODE_LIMIT nodes raises
    CombinatorialBlowup first.
    """
    levels, rows = _mark(_string_set(B), g, depth, tuple(stem), frozenset(avoid))
    return dict(zip(chain.from_iterable(reversed(levels)),
                    chain.from_iterable(reversed(rows))))


def is_n_big(B: Iterable[Node], n: int, g: OrderFunction, stem: Node = (),
             depth: int = 0) -> bool:
    """Whether B is n-big above stem within the depth horizon (n >= 1)."""
    if n < 1:
        raise ValueError("bigness is defined for n >= 1")
    return bushiness(B, g, depth, stem) >= min(n, BIG_CAP)


def closure(B: Iterable[Node], n: int, g: OrderFunction, depth: int) -> frozenset[Node]:
    """All tau in the full region with B n-big above tau.

    The result B* contains B, and every node outside B* has at most n - 1
    children inside B* (the pruning property `closure_check` verifies).
    """
    if n < 1:
        raise ValueError("bigness is defined for n >= 1")
    levels, rows = _mark(_string_set(B), g, depth, (), frozenset())
    threshold = min(n, BIG_CAP)
    # deepest level first, as bushiness_numbers lists them
    return frozenset(compress(chain.from_iterable(levels[::-1]),
                              [v >= threshold for v in chain.from_iterable(rows[::-1])]))


_parent = itemgetter(slice(None, -1))


class TreeWitness(_Value):
    """A finite tree of strings above a stem, presented as its node set."""

    def __init__(self, stem: Node, nodes: frozenset[Node]) -> None:
        _set_field(self, "stem", stem)
        _set_field(self, "nodes", nodes)

    @cached_property
    def _children(self) -> dict[Node, list[Node]]:
        """Parent -> children, built once on first use."""
        index: dict[Node, list[Node]] = {}
        for node in self.nodes:
            if len(node) > len(self.stem):
                index.setdefault(node[:-1], []).append(node)
        return index

    @cached_property
    def _parent_counts(self) -> Counter[Node]:
        """Number of children of every node that has one, counted once: each
        node longer than the stem is counted under its parent."""
        k = len(self.stem)
        longer = compress(self.nodes, map(k.__lt__, map(len, self.nodes)))
        return Counter(map(_parent, longer))

    @cached_property
    def _exact_verdicts(self) -> dict[tuple[int, OrderFunction], Optional[str]]:
        """(n, g) -> what `verify_bushy(self, n, g, exactly=True)` found:
        None when the tree passed, else the MalformedTree text.  Filled by
        `_verify_exactly`, so a tree asked again is not verified again."""
        return {}

    def leaves(self) -> frozenset[Node]:
        # a filter, not `nodes - counts`: the difference may build a table of
        # another size, so iterate in another order, and callers iterate leaves
        return frozenset(filterfalse(self._parent_counts.__contains__, self.nodes))

    def children_of(self, tau: Node) -> list[Node]:
        return sorted(self._children.get(tau, ()))

    def to_jsonable(self) -> dict:
        return {"stem": list(self.stem), "nodes": sorted(list(n) for n in self.nodes)}


def _valid_strings(nodes: frozenset[Node], g: OrderFunction) -> bool:
    """Whether every node is a valid string for g: one minimum and one
    maximum per position, over the entries of all nodes at once."""
    return all(min(column) >= 0 and max(column) < g.value(i)
               for i, column in enumerate(zip_longest(*nodes, fillvalue=0)))


def _name_offender(witness: TreeWitness, n: int, g: OrderFunction, exactly: bool,
                   counts: Counter[Node]) -> None:
    """Raise MalformedTree naming the first node, in the node set's order,
    that breaks the tree shape or the child counts."""
    stem, nodes = witness.stem, witness.nodes
    if stem not in nodes:
        raise MalformedTree("stem missing from node set")
    k = len(stem)
    for node in nodes:
        if node[:k] != stem:
            raise MalformedTree(f"node {node} does not extend the stem")
        if not g.validate_node(node):
            raise MalformedTree(f"node {node} is not a valid string for g")
        if len(node) > k and node[:-1] not in nodes:
            raise MalformedTree(f"node {node} has no parent in the tree")
    for node in nodes:
        c = counts[node]
        if c and (c < n or (exactly and c != n)):
            raise MalformedTree(
                f"internal node {node} has {c} children, wanted {'exactly' if exactly else 'at least'} {n}")


def verify_bushy(witness: TreeWitness, n: int, g: OrderFunction,
                 exactly: bool = False,
                 leaves_in: Optional[frozenset[Node]] = None) -> None:
    """Check the witness is n-bushy above its stem; raise MalformedTree if not.

    The node set must be a tree above the stem: the stem is a node, every
    other node is a valid string for g whose parent is a node.  Every node
    with children must have at least n of them (exactly n when `exactly`).
    When `leaves_in` is given, every leaf must belong to it.

    The tree is decided by set operations over the whole node set and one
    count of parents: every node but the stem is longer than it, the
    parents are nodes, the entries are in range and the counts in bounds.
    Only a set that fails is walked node by node, to name the first
    offending node in the set's order.
    """
    if not _valid_strings(witness.nodes, g):
        _name_offender(witness, n, g, exactly, witness._parent_counts)
    _verify_shape(witness, n, g, exactly=exactly)
    if leaves_in is not None:
        stray = witness.nodes.difference(witness._parent_counts, leaves_in)
        if stray:
            raise MalformedTree(f"leaves outside the target set: {sorted(stray)[:3]}")


def _verify_shape(witness: TreeWitness, n: int, g: OrderFunction, exactly: bool = False,
                  leaves_of: Optional[TreeWitness] = None) -> None:
    """verify_bushy for a witness whose nodes are known to be valid strings
    for g, as those of a subtree of a verified tree are: the shape and the
    counts only.  `leaves_of` (that tree) stands for `leaves_in=` its
    leaves: a leaf strays when it has children there, so the tree's few
    parents are searched, not its many leaves."""
    stem, nodes = witness.stem, witness.nodes
    counts = witness._parent_counts
    kids = counts.values()
    if not (stem in nodes and counts.total() == len(nodes) - 1
            and counts.keys() <= nodes and min(kids, default=n) >= n
            and (not exactly or max(kids, default=n) == n)):
        _name_offender(witness, n, g, exactly, counts)
    if leaves_of is not None:
        stray = [node for node in leaves_of._parent_counts
                 if node in nodes and node not in counts]
        if stray:
            raise MalformedTree(f"leaves outside the target set: {sorted(stray)[:3]}")


def _verify_exactly(witness: TreeWitness, n: int, g: OrderFunction) -> None:
    """verify_bushy(witness, n, g, exactly=True), decided once per (n, g)
    and kept on the witness: a replay that meets one tree object many
    times pays for one verification."""
    verdicts = witness._exact_verdicts
    key = (n, g)
    if key not in verdicts:
        try:
            verify_bushy(witness, n, g, exactly=True)
            verdicts[key] = None
        except MalformedTree as exc:
            verdicts[key] = str(exc)
    if verdicts[key] is not None:
        raise MalformedTree(verdicts[key])


def witness_tree(B: Iterable[Node], n: int, g: OrderFunction, stem: Node,
                 depth: int, exactly: bool = True,
                 avoid: frozenset[Node] = frozenset()) -> TreeWitness:
    """Greedy lex-least n-bushy tree above stem with all leaves in B.

    Requires B to be n-big above stem by trees avoiding `avoid`; raises
    ValueError otherwise.  The tree is read off one marking: members of B
    become leaves (descent stops), so the tree is as shallow as the marking
    allows, and nodes the marking forbids have beta 0 and are never picked.
    With `exactly`, internal nodes keep exactly n children.  The tree's
    nodes are the region index's own tuples.
    """
    B = _string_set(B)
    beta = bushiness_numbers(B, g, depth, stem, avoid)
    threshold = min(n, BIG_CAP)
    if beta[stem] < threshold:
        raise ValueError(f"set is not {n}-big above {stem} within depth {depth}")
    levels, widths = _region_index(g, depth, tuple(stem))
    nodes = {levels[0][0]}
    frontier = [(0, 0)]  # (level, position) in the index
    while frontier:
        i, j = frontier.pop()
        if levels[i][j] in B:
            continue
        w, below = widths[i], levels[i + 1]
        picked = [p for p in range(j * w, (j + 1) * w) if beta[below[p]] >= threshold]
        if exactly:
            picked = picked[:n]
        nodes.update(below[p] for p in picked)
        frontier.extend((i + 1, p) for p in picked)
    witness = TreeWitness(levels[0][0], frozenset(nodes))
    verify_bushy(witness, n, g, exactly=exactly, leaves_in=B)
    return witness


def brute_force_is_n_big(B: Iterable[Node], n: int, g: OrderFunction,
                         stem: Node, depth: int) -> bool:
    """Naive mirror of is_n_big: existential search over n-subsets of children."""
    B = frozenset(tuple(node) for node in B)

    def big(tau: Node) -> bool:
        if tau in B:
            return True
        if len(tau) >= depth:
            return False
        children = [tau + (c,) for c in range(g.value(len(tau)))]
        if n > len(children):
            return False
        return any(all(big(c) for c in combo) for combo in combinations(children, n))

    return big(tuple(stem))


# ---------------------------------------------------------------------------
# Lemma checkers.  Each returns a small verdict object rather than a bool so
# sweeps can count and serialize what they saw.

class PreconditionViolated(_Value):
    def __init__(self, reason: str) -> None:
        _set_field(self, "reason", reason)


class LemmaHolds(_Value):
    def __init__(self, detail: str = "") -> None:
        _set_field(self, "detail", detail)


class CounterexampleWitness(_Value):
    def __init__(self, detail: str, witness: Optional[TreeWitness] = None) -> None:
        _set_field(self, "detail", detail)
        _set_field(self, "witness", witness)


LemmaVerdict = PreconditionViolated | LemmaHolds | CounterexampleWitness


def closure_check(B: Iterable[Node], n: int, g: OrderFunction, depth: int) -> LemmaVerdict:
    """Verify the pruning properties of B* = closure(B, n).

    Checks: B is contained in B*; every node outside B* has at most n - 1
    children inside B*; every node of B* outside B has at least n children
    inside B*.  The last two are what makes B* prunable: big sets can be
    thinned to bushy trees avoiding the complement of B*.
    """
    B = _string_set(B)
    levels, rows = _mark(B, g, depth, (), frozenset())
    threshold = min(n, BIG_CAP)
    inside = [[v >= threshold for v in row] for row in rows]
    missing = [tau for level, row in zip(levels, inside)
               for tau, big in zip(level, row) if not big and tau in B]
    if missing:
        return CounterexampleWitness(f"members escaped the closure: {sorted(missing)[:3]}")
    # deepest level first, in bushiness_numbers' order, which fixes the
    # counterexample reported first
    widths = _region_index(g, depth, ())[1]
    for i in range(len(levels) - 2, -1, -1):
        w, below = widths[i], inside[i + 1]
        for j, (tau, big) in enumerate(zip(levels[i], inside[i])):
            count = sum(below[j * w:(j + 1) * w])
            if not big and count > n - 1:
                return CounterexampleWitness(
                    f"node {tau} outside the closure has {count} children inside")
            if big and count < n and tau not in B:
                return CounterexampleWitness(
                    f"closure node {tau} not in the base has only {count} children inside")
    size = sum(map(sum, inside))
    return LemmaHolds(f"closure of size {size} verified over {sum(map(len, levels))} nodes")


def intersection_bushiness_check(ambient: TreeWitness, F: Iterable[Node],
                                 C: Iterable[Node], k: int,
                                 g: OrderFunction) -> LemmaVerdict:
    """Inside an exactly-6k-bushy ambient tree, two 4k-bushy subtrees meet 2k-bushily.

    F and C are node sets of subtrees of the ambient tree, each required to
    be 4k-bushy above the common stem with leaves among the ambient leaves.
    The verdict confirms F intersect C is 2k-bushy (witness included), or
    reports the node where the count argument fails.

    The ambient is verified once per tree object and (6k, g), the verdict
    kept on the object, so a trace that repeats an ambient pays for it
    once when equal ambients are one object, as the replay's field rule
    makes them.  F, C and F intersect C are first shown to lie inside the
    verified ambient, so their strings are valid already: they get the
    shape and count checks only.
    """
    F = _string_set(F)
    C = _string_set(C)
    try:
        _verify_exactly(ambient, 6 * k, g)
    except MalformedTree as exc:
        return PreconditionViolated(f"ambient tree is not exactly {6 * k}-bushy: {exc}")
    for name, sub in (("first", F), ("second", C)):
        if not sub <= ambient.nodes:
            return PreconditionViolated(f"{name} subtree leaves the ambient tree")
        try:
            _verify_shape(TreeWitness(ambient.stem, sub), 4 * k, g, leaves_of=ambient)
        except MalformedTree as exc:
            return PreconditionViolated(f"{name} subtree is not {4 * k}-bushy: {exc}")
    inter = F & C
    tree = TreeWitness(ambient.stem, inter)
    try:
        _verify_shape(tree, 2 * k, g)
    except MalformedTree as exc:
        return CounterexampleWitness(f"intersection fails to be {2 * k}-bushy: {exc}", tree)
    return LemmaHolds(f"intersection of {len(inter)} nodes is {2 * k}-bushy")


def _pair_list(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    pair_list = [(n, m) for n, m in pairs]
    if any(type(v) is not int or v < 1 for pair in pair_list for v in pair):
        raise ValueError("bigness parameters must be integers >= 1")
    return sorted(set(pair_list))


def _at_least(width: int, k: int, hit: int, total: int) -> int:
    """Colourings of width children, each weighing `total` of which `hit`
    reach a threshold, in which at least k children reach it."""
    miss = total - hit
    fewer = sum(comb(width, j) * hit**j * miss**(width - j)
                for j in range(min(k, width + 1)))
    return total**width - fewer


def _non_member_states(states: dict, width: int, thresholds: tuple) -> dict:
    """States of a non-member over all colourings of its width children.

    A non-member's beta is the h-index of its children's, so it reaches t
    exactly when at least t children reach t: counting, per threshold, the
    children that reach it decides the parent.  Counts are capped at the
    threshold, or not kept at all when the threshold exceeds the width.
    """
    ca, cb, cu = (t if t <= width else 0 for t in thresholds)
    kinds = list(states.items())
    counts = {(0, 0, 0): 1}
    for _ in range(width):
        grown: dict = defaultdict(int)
        for (a, b, u), v in counts.items():
            # the count after a child that does not / does reach each threshold
            na, nb, nu = (a, a + (a < ca)), (b, b + (b < cb)), (u, u + (u < cu))
            for (x, y, z), c in kinds:
                grown[na[x], nb[y], nu[z]] += v * c
        counts = grown
    out: dict = defaultdict(int)
    for key, v in counts.items():
        out[tuple(int(k >= t) for k, t in zip(key, thresholds))] += v
    return out


def _big_unions(widths: list[int], target: int) -> int:
    """Subsets U of a region with these level widths, stem level first,
    that are target-big above the stem.

    All nodes of one level have isomorphic subtrees, so the subsets of one
    node's subtree are counted once per level, split by whether the node
    reaches the target, from the horizon up.  A member's beta is BIG_CAP.
    """
    small, big = 1, 1  # a node at the horizon is outside U (beta 0) or a member
    for width in reversed(widths):
        total = small + big
        free = total**width  # a member leaves its subtree free
        reached = _at_least(width, target, big, total)
        small, big = free - reached, reached + free
    return big


def _bad_splits(widths: list[int], n: int, m: int, target: int) -> int:
    """3-colourings (outside U, in A, in B) of a region with these level
    widths where U is target-big above the stem but A is m-small and B
    n-small.

    As in _big_unions, one count per level and node state, the state being
    (beta_A >= m, beta_B >= n, beta_U >= target).
    """
    states: dict = {(0, 0, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}  # at the horizon
    for width in reversed(widths):
        total = sum(states.values())
        free = total**width
        a_big = _at_least(width, m, sum(v for s, v in states.items() if s[0]), total)
        b_big = _at_least(width, n, sum(v for s, v in states.items() if s[1]), total)
        states = _non_member_states(states, width, (m, n, target))
        # a member of A reaches m and the target; its beta_B is still the
        # h-index of its children's, and symmetrically for a member of B
        states[1, 1, 1] += b_big + a_big
        states[1, 0, 1] += free - b_big
        states[0, 1, 1] += free - a_big
    return states.get((0, 0, 1), 0)


def _sweep(g: OrderFunction, depth: int, checks: list[tuple[int, int, int]],
           stems: Iterable[Node]) -> dict:
    """union_smallness_sweep over (n, m, target) checks, by level counts."""
    stems = [tuple(stem) for stem in stems]
    for stem in stems:
        _check_stem(g, depth, stem, REGION_NODE_LIMIT)
    # the counts depend on a stem only through its length
    widths = {k: [g.value(d) for d in range(k, depth)] for k in {len(stem) for stem in stems}}
    capped = [tuple(min(t, BIG_CAP) for t in check) for check in checks]
    work = sum(width * prod(t + 1 if t <= width else 1 for t in check)
               for check in capped for level in widths.values() for width in level)
    if work > SWEEP_WORK_LIMIT:
        raise CombinatorialBlowup(
            f"the sweep would step through {work} child-count states, "
            f"more than {SWEEP_WORK_LIMIT}")
    counts = {k: [(_big_unions(level, target), _bad_splits(level, n, m, target))
                  for n, m, target in capped]
              for k, level in widths.items()}
    instances = 0
    counterexamples: list[dict] = []
    for stem in stems:
        instances += sum(big for big, _ in counts[len(stem)])
        if any(bad for _, bad in counts[len(stem)]):
            # only a broken kernel gets here: list the certificates in the
            # enumerator's order
            counterexamples += _brute_force_sweep(g, depth, checks, [stem])["counterexamples"]
    return {"instances": instances, "counterexamples": counterexamples}


def union_smallness_sweep(g: OrderFunction, depth: int,
                          pairs: Iterable[tuple[int, int]],
                          stems: Iterable[Node] = ((),)) -> dict:
    """Exact counterexample count for additivity of smallness.

    For every stem, every subset U of its region, and every (n, m) pair:
    whenever U is (n + m - 1)-big, each two-coloring of U must leave the
    first class m-big or the second n-big.  Disjoint colorings suffice,
    since parts only shrink under disjointification and bigness is
    monotone.  Returns the count of checked big unions and the (expected
    empty) list of counterexample certificates, exactly as the mirror
    `_brute_force_sweep` does, but counted level by level instead of
    enumerated, so regions of hundreds of nodes are in reach.  Raises
    CombinatorialBlowup for a region above REGION_NODE_LIMIT nodes, or when
    the counts would step through more than SWEEP_WORK_LIMIT states, and
    ValueError for a stem longer than the depth or not a valid string for g.
    """
    return _sweep(g, depth, [(n, m, n + m - 1) for n, m in _pair_list(pairs)], stems)


def _brute_force_sweep(g: OrderFunction, depth: int,
                       checks: list[tuple[int, int, int]],
                       stems: Iterable[Node]) -> dict:
    """Naive mirror of _sweep: a beta table for all 2^N subsets of each
    region, then every (union, split) pair walked.  Raises
    CombinatorialBlowup for a region above BRUTE_FORCE_NODE_LIMIT nodes."""
    # at call time: certs imports this module, and is fully loaded before any call runs
    from .certs import certificate

    instances = 0
    counterexamples: list[dict] = []
    for stem in stems:
        stem = tuple(stem)
        size = _check_stem(g, depth, stem, BRUTE_FORCE_NODE_LIMIT)
        region = sorted(region_nodes(g, depth, stem))
        # beta of every subset once; split checks are then table lookups
        beta = [0] * (1 << size)
        for mask in range(1, 1 << size):
            members = [region[i] for i in range(size) if mask >> i & 1]
            beta[mask] = bushiness(members, g, depth, stem)
        for n, m, target in checks:
            big_n, big_m, big_target = (min(t, BIG_CAP) for t in (n, m, target))
            for mask in range(1 << size):
                if beta[mask] < big_target:
                    continue
                instances += 1
                sub = mask
                while True:
                    if beta[sub] < big_m and beta[mask ^ sub] < big_n:
                        counterexamples.append(certificate(
                            "union_counterexample", g=g, depth=depth, stem=stem, n=n, m=m,
                            union=[region[i] for i in range(size) if mask >> i & 1],
                            part_small_m=[region[i] for i in range(size) if sub >> i & 1],
                            part_small_n=[region[i] for i in range(size)
                                          if (mask ^ sub) >> i & 1]))
                    if sub == 0:
                        break
                    sub = (sub - 1) & mask
    return {"instances": instances, "counterexamples": counterexamples}
