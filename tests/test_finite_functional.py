"""Finite functional tables: the whole-table passes against the per-entry loop.

`FiniteFunctional` decides a table with passes over the whole table and
runs `_table_by_entry`, the per-entry loop, only to name an offending
entry.  These tests hold the two to the same outcome on coherent and on
hostile tables: the same sorted `table`, the same `_by_node` order, or
the same exception type and message.  `from_jsonable` is held to the
parse it replaced, and the non-totality exit to a fresh C_m.
"""

import itertools
import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from dnrlab import forcing
from dnrlab.asm import const_index
from dnrlab.bushy import OrderFunction, region_nodes
from dnrlab.forcing import (
    BignessUnavailable,
    FiniteFunctional,
    ForcingCondition,
    NonTotalExt,
    SearchLimits,
    _c_m_minimal,
    _table_at_once,
    _table_by_entry,
    c_m_set,
    density_search,
)
from test_acceptance import _hand_built_tables
from test_density_golden import BATTERY, EXITS
from test_forcing import monotone_tables

# Values an output may hold besides 0 and 1: the per-entry loop accepts
# 1.0 and True (they equal 1) and refuses 2 and -1.
ODD_BITS = (2, -1, 1.0, True)


def outcome(build):
    """What build() gives: its table and node order, or its exception."""
    try:
        f = build()
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return f.table, list(f._by_node.items())


def per_entry(depth, table):
    """The constructor as it was before the whole-table passes."""
    if depth < 0:
        raise ValueError("depth is a natural")
    seen = _table_by_entry(depth, table)
    f = object.__new__(FiniteFunctional)
    object.__setattr__(f, "table", tuple(sorted(seen.items())))
    object.__setattr__(f, "_by_node", seen)
    return f


def assert_mirrors(depth, table):
    expected = outcome(lambda: per_entry(depth, table))
    assert outcome(lambda: FiniteFunctional(depth, table)) == expected
    if depth >= 0:
        # the per-entry loop runs only on a table it refuses
        refused = isinstance(expected[0], type)
        assert (_table_at_once(depth, table) is None) == refused


# ---------------------------------------------------------------------------
# The whole-table passes against the per-entry loop.

CHAIN = ((), (0,), (1,), (0, 1))
CHAIN_OUTPUTS = (None, (), (0,), (1,), (0, 1), (2,), (True,))


def test_every_small_table_mirrors_the_per_entry_loop():
    """Every assignment of seven outputs (or none) to four nodes, in two
    orders, at two depths, with and without a repeated first key: (0, 1)
    has a tabled parent or, with (0,) untabled, walks up to the root."""
    for outs in itertools.product(CHAIN_OUTPUTS, repeat=len(CHAIN)):
        table = tuple((node, out) for node, out in zip(CHAIN, outs) if out is not None)
        for entries in (table, table[::-1], table + table[:1]):
            for depth in (1, 2):
                assert_mirrors(depth, entries)


@st.composite
def coherent_entries(draw):
    """A coherent table over widths 2 to 3, to depth 0..3, as a list of
    entries in table order."""
    g = OrderFunction.constant(draw(st.integers(2, 3)))
    depth = draw(st.integers(0, 3))
    entries, outputs = [], {}
    for node in region_nodes(g, depth):
        out = outputs.get(node[:-1], ())
        if draw(st.booleans()):
            out = out + tuple(draw(st.lists(st.integers(0, 1), max_size=2)))
            entries.append((node, out))
        outputs[node] = out
    return depth, entries


@st.composite
def hostile_tables(draw):
    """A coherent table with up to three of the faults the loop names,
    shuffled: a repeated key, a key past the depth, an odd output bit, an
    output off its tabled parent's or off an untabled parent's nearest
    tabled prefix, an entry that is not a pair, and a bool depth."""
    depth, entries = draw(coherent_entries())
    node_of = st.sampled_from([node for node, _ in entries]) if entries else st.just(())
    junk = []
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(
            ("repeat", "deep", "bit", "off_parent", "off_ancestor", "not_pair", "bool")))
        if fault == "repeat" and entries:
            node = draw(node_of)
            entries.append((node, draw(st.sampled_from([(), (0,), (1, 1)]))))
        elif fault == "deep":
            entries.append(((0,) * (depth + 1), (0,)))
        elif fault == "bit" and entries:
            i = draw(st.integers(0, len(entries) - 1))
            node, out = entries[i]
            entries[i] = (node, out + (draw(st.sampled_from(ODD_BITS)),))
        elif fault in ("off_parent", "off_ancestor") and depth >= 2:
            # (0, 1) outputs (0,) under a tabled parent (0,) that outputs
            # (1,), or under an untabled (0,) and a root that outputs (1,)
            above = ((0,),) if fault == "off_parent" else ((), (0,))
            entries = [(n, o) for n, o in entries if n != (0, 1) and n not in above]
            entries += [(above[0], (1,)), ((0, 1), (0,))]
        elif fault == "not_pair":
            junk.append(draw(st.sampled_from([((0,),), ((), (0,), (1,)), 5, None])))
        elif fault == "bool":
            depth = draw(st.booleans())
    return depth, tuple(draw(st.permutations(entries + junk)))


@settings(max_examples=80, deadline=None)
@given(coherent_entries())
def test_coherent_tables_take_the_whole_table_passes(instance):
    depth, entries = instance
    table = tuple(entries)
    assert _table_at_once(depth, table) is not None
    assert_mirrors(depth, table)
    assert_mirrors(depth, table[::-1])


@settings(max_examples=200, deadline=None)
@given(hostile_tables())
def test_hostile_tables_raise_what_the_per_entry_loop_raises(instance):
    assert_mirrors(*instance)


@settings(max_examples=60, deadline=None)
@given(coherent_entries(), st.sampled_from(ODD_BITS + (0,)))
def test_from_entries_mirrors_the_per_entry_loop(instance, bit):
    depth, entries = instance
    mapping = {node: list(out) + [bit] for node, out in entries}
    as_tuples = tuple((tuple(node), tuple(out)) for node, out in mapping.items())
    expected = outcome(lambda: per_entry(depth, as_tuples))
    assert outcome(lambda: FiniteFunctional.from_entries(depth, mapping)) == expected
    assert outcome(lambda: FiniteFunctional.from_entries(depth, mapping.items())) == expected


def test_passing_tables_never_run_the_per_entry_loop():
    tables = [table for table, *_ in BATTERY.values()] + [t for _, t in _hand_built_tables()]
    with mock.patch.object(forcing, "_table_by_entry", side_effect=AssertionError):
        for f in tables:
            assert FiniteFunctional(f.depth, f.table) == f
            assert FiniteFunctional.from_entries(f.depth, dict(f.table)) == f
            assert FiniteFunctional.from_jsonable(f.to_jsonable()) == f


# ---------------------------------------------------------------------------
# JSON: the whole-table naturals check against the parse it replaced.

def parse_by_entry(data):
    """from_jsonable as it was: entries converted and type-checked one at a
    time, then the per-entry constructor."""
    try:
        depth = data["depth"]
        entries = [(tuple(node), tuple(out)) for node, out in data["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"a functional is {{depth, entries: [[node, bits], ...]}}: {exc}") from None
    if type(depth) is not int or any(
            type(v) is not int or v < 0 for node, out in entries for v in node + out):
        raise ValueError("functional depth, nodes and bits must be naturals")
    return per_entry(depth, tuple(entries))


JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.just(1.0),
                 st.text(alphabet="01a", max_size=2))
JSON_NODES = st.one_of(st.lists(st.integers(0, 2), max_size=3),
                       st.lists(st.one_of(st.integers(0, 2), JUNK), max_size=3), JUNK)
JSON_BITS = st.one_of(st.lists(st.integers(0, 1), max_size=2),
                      st.lists(st.one_of(st.integers(0, 1), JUNK), max_size=2), JUNK)
JSON_ENTRIES = st.one_of(
    st.lists(st.tuples(JSON_NODES, JSON_BITS).map(list), max_size=5),
    st.lists(st.one_of(st.tuples(JSON_NODES, JSON_BITS).map(list),
                       st.lists(JSON_NODES, max_size=3), JUNK,
                       st.dictionaries(st.text(alphabet="ab", max_size=1), JUNK, max_size=2)),
             max_size=5),
    st.dictionaries(st.text(alphabet="ab", min_size=2, max_size=2), JUNK, max_size=2),
    JUNK)
JSON_DEPTHS = st.one_of(st.integers(-1, 3), JUNK)


@st.composite
def hostile_json(draw):
    """A functional spec that is valid, nearly valid or not a spec at all."""
    choice = draw(st.integers(0, 3))
    if choice == 0:  # a valid spec with one value spoiled, maybe
        depth, entries = draw(coherent_entries())
        data = {"depth": depth, "entries": [[list(n), list(o)] for n, o in entries]}
        flat = [(e, part, i) for e, entry in enumerate(data["entries"])
                for part in (0, 1) for i in range(len(entry[part]))]
        if flat and draw(st.booleans()):
            e, part, i = draw(st.sampled_from(flat))
            data["entries"][e][part][i] = draw(JUNK)
        return data
    if choice == 1:
        return {"depth": draw(JSON_DEPTHS), "entries": draw(JSON_ENTRIES)}
    if choice == 2:  # a key missing
        return draw(st.sampled_from([{"depth": 2}, {"entries": []}, {}]))
    return draw(st.one_of(JUNK, st.lists(JUNK, max_size=2)))


@settings(max_examples=250, deadline=None)
@given(hostile_json())
def test_from_jsonable_mirrors_the_per_entry_parse(data):
    expected = outcome(lambda: parse_by_entry(data))
    assert outcome(lambda: FiniteFunctional.from_jsonable(data)) == expected


@settings(max_examples=50, deadline=None)
@given(coherent_entries())
def test_to_jsonable_round_trip(instance):
    f = FiniteFunctional.from_entries(*instance)
    data = f.to_jsonable()
    assert data == {"depth": f.depth, "entries": [[list(n), list(o)] for n, o in f.table]}
    assert FiniteFunctional.from_jsonable(json.loads(json.dumps(data))) == f


# ---------------------------------------------------------------------------
# The non-totality exit reads C_m once.

def non_total_searches():
    """(table, q, g, condition) of every hand-built search, golden and acceptance."""
    for table, q, g, stem, badset, _ in BATTERY.values():
        yield table, const_index(q), g, ForcingCondition(stem, frozenset(badset), g)
    for table, q, g, stem, badset, _, _ in EXITS.values():
        yield table, q, g, ForcingCondition(stem, frozenset(badset), g)
    g8 = OrderFunction.constant(8)
    for _, table in _hand_built_tables():
        yield table, const_index(0), g8, ForcingCondition((), frozenset(), g8)


def check_reused_c_m(table, q, g, cond) -> bool:
    """Run the search, catching the C_m its totality tree raised; True when
    the verdict is a non-totality extension, whose C_m is then checked."""
    raised = []
    build = forcing.build_totality_tree

    def spy(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except BignessUnavailable as exc:
            raised.append(exc)
            raise

    with mock.patch.object(forcing, "build_totality_tree", spy):
        verdict = density_search(table, q, cond, SearchLimits())
    if not isinstance(verdict, NonTotalExt):
        assert not raised
        return False
    (exc,) = raised
    node, m = exc.node, exc.position
    assert exc.c_m == c_m_set(table, g, node, m)
    cert = verdict.certificate
    assert (cert["stem"], cert["m"]) == (list(node), m)
    assert cert["c_m_minimal"] == sorted(list(n) for n in _c_m_minimal(exc.c_m, node))
    return True


def test_hand_built_non_total_verdicts_reuse_their_c_m():
    assert sum(check_reused_c_m(*search) for search in non_total_searches()) >= 3


@settings(max_examples=40, deadline=None)
@given(monotone_tables())
def test_random_non_total_verdicts_reuse_their_c_m(table):
    g8 = OrderFunction.constant(8)
    check_reused_c_m(table, const_index(0), g8, ForcingCondition((), frozenset(), g8))
