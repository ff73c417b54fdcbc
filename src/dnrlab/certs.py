"""Certificate replay: re-check recorded witnesses against the current build.

Every audit and construction in the package emits plain-dict certificates
carrying enough data to re-verify their claims from scratch.  This module
is the single registry mapping certificate kinds to replayers.  A replayer
recomputes the cheap claims exactly and re-runs the budgeted ones at the
recorded budgets, raising ReplayMismatch on the first disagreement.
Structural problems (missing fields, unknown kinds, malformed values) are
MalformedCertificate instead: a broken file is not a refuted claim.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .bushy import (
    LemmaHolds,
    MalformedTree,
    OrderFunction,
    TreeWitness,
    closure,
    intersection_bushiness_check,
    is_n_big,
    union_smallness_sweep,
    verify_bushy,
)
from .errors import MalformedCertificate, ReplayMismatch
from .forcing import (
    FiniteFunctional,
    ForcingCondition,
    _c_m_minimal,
    _diagonal_pair,
    c_m_set,
)
from .machine import (
    Halted,
    domain_window,
    eval_program,
    gamma,
    re_enumeration_growth,
)
from .numbering import (
    lowness_bound_check,
    snr_from_immune_oracle,
    union_cylinder_measure,
)
from .dyadic import DyadicRational
from .oracle import first_members, oracle_from_spec
from .reductions import _side_codes, diagonal_set_index, first_slice_index
from .stages import ei_not_coei, interval_slice_index

REPLAYERS: dict[str, Callable[[Mapping], None]] = {}


def _replayer(kind: str):
    def register(fn: Callable[[Mapping], None]):
        REPLAYERS[kind] = fn
        return fn
    return register


# Fields that hold a natural (an int, not a bool), whatever the kind; the
# optional ones may also be null, the lists hold naturals only (a node is
# such a list), and the node lists hold such lists.  CLI input files are
# read through the same rules.
_NATURAL_FIELDS = frozenset({
    "a", "base", "budget", "c", "candidate", "cap", "chosen_color",
    "claimed_bound", "count", "counterexamples", "depth", "e", "e0", "e1",
    "e_max", "e_prime", "eval_budget", "f", "f_value", "fixpoint_budget", "h",
    "h_e", "horizon", "instances", "interval_count", "intersection_size", "k",
    "m", "n", "p", "position_horizon", "probes", "q", "record_count",
    "smallness_bound", "stages", "tail_exponent", "term_cap",
    "tree_bushiness", "value", "value_cap", "winner",
})
_OPTIONAL_NATURAL_FIELDS = frozenset({"side_code", "complement_code"})
_NATURAL_LIST_FIELDS = frozenset({
    "members", "ones", "order_prefix", "prefix", "q_values", "sigma", "stem",
    "w_winner"})
_NODE_LIST_FIELDS = frozenset({"pairs", "set", "sets", "stems"})
_STRING_FIELDS = frozenset({"g"})  # an order function spec


def _is_natural(value) -> bool:
    return type(value) is int and value >= 0


def _is_natural_list(value) -> bool:
    return isinstance(value, list) and all(_is_natural(v) for v in value)


def _well_typed(key: str, value) -> bool:
    if key in _NATURAL_FIELDS:
        return _is_natural(value)
    if key in _OPTIONAL_NATURAL_FIELDS:
        return value is None or _is_natural(value)
    if key in _NATURAL_LIST_FIELDS:
        return _is_natural_list(value)
    if key in _NODE_LIST_FIELDS:
        return isinstance(value, list) and all(_is_natural_list(v) for v in value)
    if key in _STRING_FIELDS:
        return isinstance(value, str)
    return True


def typed_field(owner: str, key: str, value):
    """`value` if it obeys the type rule for fields named `key`, else
    MalformedCertificate (a ValueError) naming `owner`."""
    if not _well_typed(key, value):
        wanted = ("a string" if key in _STRING_FIELDS
                  else "lists of naturals" if key in _NODE_LIST_FIELDS else "naturals")
        raise MalformedCertificate(f"{owner} field {key!r} must hold {wanted}, got {value!r}")
    return value


def _fields(cert: Mapping, *keys: str) -> list:
    kind = cert.get("kind", "?")
    missing = [k for k in keys if k not in cert]
    if missing:
        raise MalformedCertificate(f"{kind} certificate lacks fields {missing}")
    return [typed_field(kind, k, cert[k]) for k in keys]


def _check(ok: bool, kind: str, detail: str) -> None:
    if not ok:
        raise ReplayMismatch(kind, detail)


def _halted_value(e: int, x: int, budget: int) -> int | None:
    out = eval_program(e, x, budget)
    return out.value if isinstance(out, Halted) else None


def replay_certificate(cert: Mapping) -> str:
    """Re-verify one certificate; returns its kind, raises on any failure."""
    if not isinstance(cert, Mapping):
        raise MalformedCertificate(f"certificate is not an object: {cert!r}")
    kind = cert.get("kind")
    if not isinstance(kind, str):
        raise MalformedCertificate("certificate has no string 'kind' field")
    replayer = REPLAYERS.get(kind)
    if replayer is None:
        raise MalformedCertificate(f"unknown certificate kind {kind!r}")
    try:
        replayer(cert)
    except (ReplayMismatch, MalformedCertificate):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificate(f"{kind}: bad field content ({exc})") from exc
    return kind


# ---------------------------------------------------------------------------
# Forcing extensions.

@_replayer("non_total_extension")
def _replay_non_total(cert: Mapping) -> None:
    g_spec, func_js, k, stem, m, bound, minimal, badset = _fields(
        cert, "g", "functional", "k", "stem", "m", "smallness_bound",
        "c_m_minimal", "badset_before")
    g = OrderFunction.from_spec(g_spec)
    func = FiniteFunctional.from_jsonable(func_js)
    stem = tuple(stem)
    _check(bound == 7 * k, cert["kind"], f"smallness bound {bound} is not 7k")
    cm = c_m_set(func, g, stem, m)
    _check(not is_n_big(cm, bound, g, stem, func.depth), cert["kind"],
           f"C_{m} is {bound}-big above {stem}: the non-totality claim fails")
    want_minimal = sorted(list(n) for n in _c_m_minimal(cm, stem))
    _check(want_minimal == minimal, cert["kind"],
           "recorded minimal deciding set disagrees with recomputation")
    bad = frozenset(tuple(b) for b in badset) | frozenset(tuple(n) for n in minimal)
    try:
        ForcingCondition(stem, bad, g)
    except ValueError as exc:
        raise ReplayMismatch(cert["kind"], f"extended condition is invalid: {exc}")


@_replayer("diagonal_extension")
def _replay_diagonal(cert: Mapping) -> None:
    kind = cert["kind"]
    (g_spec, func_js, tau, tree_js, bushiness, fused_js, e0, e1, q, q_values,
     m_val, c, cap, winner, w_winner, horizon, eval_budget, fixpoint_budget,
     badset, new_stem, case) = _fields(
        cert, "g", "functional", "tau", "tree", "tree_bushiness", "fused",
        "e0", "e1", "q", "q_values", "m", "c", "cap", "winner", "w_winner",
        "position_horizon", "eval_budget", "fixpoint_budget", "badset",
        "new_stem", "case")
    g = OrderFunction.from_spec(g_spec)
    func = FiniteFunctional.from_jsonable(func_js)
    tree = TreeWitness.from_jsonable(tree_js)
    _check(tree.stem == tuple(tau), kind, "tree stem differs from tau")
    try:
        verify_bushy(tree, bushiness, g, exactly=True)
    except MalformedTree as exc:
        raise ReplayMismatch(kind, f"tree is not exactly {bushiness}-bushy: {exc}")
    fused = [tuple(p) for p in fused_js]
    _check(len(fused) == c, kind, f"{len(fused)} fused pairs recorded, c = {c}")
    leaves = tree.leaves()
    bad = frozenset(tuple(b) for b in badset)
    for leaf in leaves:
        out = func.output(leaf)
        for pos, bit in fused:
            _check(len(out) > pos and out[pos] == bit, kind,
                   f"leaf {leaf} does not force position {pos} to {bit}")
        _check(not any(leaf[:len(b)] == b for b in bad), kind,
               f"leaf {leaf} extends a recorded bad string")
    v0, v1 = q_values
    _check(_halted_value(q, e0, eval_budget) == v0, kind,
           f"q({e0}) no longer evaluates to {v0}")
    _check(_halted_value(q, e1, eval_budget) == v1, kind,
           f"q({e1}) no longer evaluates to {v1}")
    _check(m_val == max(v0, v1), kind, "m is not max of the q values")
    _check(c == min(2 * m_val + 1, cap), kind, "c is not min(2m+1, cap)")
    w0 = {p for p, i in fused if i == 0}
    w1 = {p for p, i in fused if i == 1}
    _check(winner == (0 if len(w0) > m_val else 1), kind,
           "winner side disagrees with the fused tally")
    w_win = (w0, w1)[winner]
    _check(sorted(w_win) == list(w_winner), kind,
           "recorded winner set disagrees with the fused pairs")
    _check(len(w_win) > m_val, kind, "winner set does not exceed m")
    e_win = (e0, e1)[winner]
    _check(domain_window(e_win, horizon, eval_budget) == w_win, kind,
           f"W_{{{e_win}}} below {horizon} disagrees with the winner set")
    if case == "case2":
        _check(all(i == 0 for _, i in fused), kind,
               "case2 certificate carries a fused one-bit")
    _check(tuple(new_stem) == min(leaves), kind,
           "new stem is not the least leaf of the tree")
    if c == cap:
        # masks are derived from the full fused list only when it was kept whole
        _check(_diagonal_pair(q, fused, horizon, fixpoint_budget) == (e0, e1), kind,
               "recursion-theorem indices fail to reconstruct")


# ---------------------------------------------------------------------------
# Diagonal-value audits.

@_replayer("ebi_violation")
def _replay_ebi(cert: Mapping) -> None:
    kind = cert["kind"]
    e, value, h_e, f, f_value, budget, oracle_js, side, members, horizon = _fields(
        cert, "e", "value", "h_e", "f", "f_value", "budget", "oracle",
        "side", "members", "horizon")
    _check(h_e == diagonal_set_index(e), kind, "transformed index fails to rebuild")
    _check(_halted_value(e, e, budget) == value, kind,
           f"diagonal value at {e} is no longer {value}")
    _check(_halted_value(f, h_e, budget) == f_value, kind,
           f"f({h_e}) is no longer {f_value}")
    _check(members == sorted(gamma(value)), kind,
           "members are not the decoded diagonal value")
    _check(len(members) == f_value + 1, kind,
           "member count is not the claimed bound plus one")
    oracle = oracle_from_spec(oracle_js)
    bit = 1 if side == "oracle" else 0
    _check(tuple(members) == first_members(oracle, len(members), value=bit), kind,
           f"members are not the first {len(members)} of the {side} side")
    _check(domain_window(h_e, horizon, budget) == frozenset(members), kind,
           "enumerated set of the transformed index disagrees with members")


@_replayer("dnr_value")
def _replay_dnr_value(cert: Mapping) -> None:
    kind = cert["kind"]
    e, value, h_e, f, f_value, budget, oracle_js, side_code, co_code, cand = _fields(
        cert, "e", "value", "h_e", "f", "f_value", "budget", "oracle",
        "side_code", "complement_code", "candidate")
    _check(h_e == diagonal_set_index(e), kind, "transformed index fails to rebuild")
    _check(_halted_value(e, e, budget) == value, kind,
           f"diagonal value at {e} is no longer {value}")
    _check(_halted_value(f, h_e, budget) == f_value, kind,
           f"f({h_e}) is no longer {f_value}")
    _check(_side_codes(oracle_from_spec(oracle_js), f_value + 1) == (side_code, co_code),
           kind, "side codes disagree with the oracle slices")
    defined = [x for x in (side_code, co_code) if x is not None]
    _check(bool(defined) and cand == min(defined), kind,
           "candidate is not the least defined side code")
    _check(cand != value, kind, "candidate collides with the diagonal value")
    _check(cand <= (1 << (2 * f_value + 2)) - 1, kind,
           "candidate exceeds the pigeonhole bound")


@_replayer("diagonal_diverges")
def _replay_diagonal_diverges(cert: Mapping) -> None:
    e, budget = _fields(cert, "e", "budget")
    _check(_halted_value(e, e, budget) is None, cert["kind"],
           f"phi_{e}({e}) now halts within {budget} steps")


@_replayer("f_unconverged")
def _replay_f_unconverged(cert: Mapping) -> None:
    e, h_e, f, budget = _fields(cert, "e", "h_e", "f", "budget")
    _check(h_e == diagonal_set_index(e), cert["kind"],
           "transformed index fails to rebuild")
    _check(_halted_value(f, h_e, budget) is None, cert["kind"],
           f"f({h_e}) now halts within {budget} steps")


# ---------------------------------------------------------------------------
# Blocking prefixes and manufactured intervals.

@_replayer("blocking_finite")
def _replay_blocking_finite(cert: Mapping) -> None:
    kind = cert["kind"]
    e, f, f_value, members, budget, sigma = _fields(
        cert, "e", "f", "f_value", "members", "budget", "sigma")
    _check(_halted_value(f, e, budget) == f_value, kind,
           f"f({e}) is no longer {f_value}")
    full, at_half = re_enumeration_growth(e, budget)
    _check(len(full) == at_half, kind,
           "the set still grows at the checkpoint: not the finite case")
    _check(sorted(full) == list(members), kind,
           "enumerated members disagree with the record")
    _check(len(members) > f_value, kind, "member count does not exceed the bound")
    _check(all(x < len(sigma) and sigma[x] == 1 for x in members), kind,
           "some member is not a one of sigma")


@_replayer("blocking_infinite")
def _replay_blocking_infinite(cert: Mapping) -> None:
    kind = cert["kind"]
    e, f, e_prime, f_value, members, order_prefix, horizon, budget, sigma = _fields(
        cert, "e", "f", "e_prime", "f_value", "members", "order_prefix",
        "horizon", "budget", "sigma")
    _check(first_slice_index(e, f) == e_prime, kind,
           "slice index fails to rebuild")
    _check(_halted_value(f, e_prime, budget) == f_value, kind,
           f"f on the slice index is no longer {f_value}")
    full, at_half = re_enumeration_growth(e, budget)
    _check(len(full) > at_half, kind,
           "the set no longer grows at the checkpoint")
    k = f_value + 1
    _check(list(full[:k]) == list(order_prefix), kind,
           "canonical order prefix disagrees with the record")
    _check(sorted(order_prefix) == list(members), kind,
           "members are not the sorted order prefix")
    _check(domain_window(e_prime, horizon, budget) == frozenset(members), kind,
           "the slice index enumerates a different set")
    _check(all(x < len(sigma) and sigma[x] == 1 for x in members), kind,
           "some member is not a one of sigma")


@_replayer("interval_slice")
def _replay_interval_slice(cert: Mapping) -> None:
    kind = cert["kind"]
    e, a, base, count, claimed, budget = _fields(
        cert, "e", "a", "base", "count", "claimed_bound", "budget")
    _check(interval_slice_index(e, base) == a, kind,
           "interval index fails to rebuild")
    _check(_halted_value(e, a, budget) == claimed, kind,
           f"phi_{e}({a}) is no longer {claimed}")
    _check(count == claimed + 1, kind, "interval size is not the bound plus one")
    window = domain_window(a, base + count + 2, budget)
    _check(window == frozenset(range(base, base + count)), kind,
           "the manufactured set is not the recorded fresh interval")


@_replayer("stage_summary")
def _replay_stage_summary(cert: Mapping) -> None:
    kind = cert["kind"]
    stages, budget, value_cap, probes, ones, record_count, interval_count = _fields(
        cert, "stages", "budget", "value_cap", "probes", "ones",
        "record_count", "interval_count")
    trace, g = ei_not_coei(stages, budget, value_cap=value_cap, probes=probes)
    _check(len(trace.records) == record_count, kind,
           "stage record count changed under re-run")
    _check(len(trace.interval_records()) == interval_count, kind,
           "interval record count changed under re-run")
    got_ones = sorted(x for x, b in g.items() if b == 1)
    _check(got_ones == list(ones), kind,
           "the constructed set's ones changed under re-run")


# ---------------------------------------------------------------------------
# Numberings and measures.

@_replayer("snr_slice")
def _replay_snr_slice(cert: Mapping) -> None:
    oracle_js, h, e, budget, value = _fields(
        cert, "oracle", "h", "e", "budget", "value")
    oracle = oracle_from_spec(oracle_js)
    got = snr_from_immune_oracle(oracle, h, e, budget)
    _check(got == value, cert["kind"],
           f"slice code at {e} is now {got}, recorded {value}")


@_replayer("cylinder_measure")
def _replay_cylinder_measure(cert: Mapping) -> None:
    kind = cert["kind"]
    sets, term_cap, measure_js = _fields(cert, "sets", "term_cap", "measure")
    got = union_cylinder_measure([frozenset(s) for s in sets], term_cap)
    want = DyadicRational.from_jsonable(measure_js)
    _check(got == want, kind, f"measure is now {got}, recorded {want}")
    if "tail_exponent" in cert:
        (exponent,) = _fields(cert, "tail_exponent")
        _check(got <= DyadicRational.half_power(exponent), kind,
               "measure exceeds the recorded tail bound")


@_replayer("lowness_bound")
def _replay_lowness_bound(cert: Mapping) -> None:
    h, p, f, c, e_max, budget, verdict_js = _fields(
        cert, "h", "p", "f", "c", "e_max", "budget", "verdict")
    verdict = lowness_bound_check(h, p, f, c, e_max, budget)
    _check(verdict.to_jsonable() == verdict_js, cert["kind"],
           "termwise verdict changed under re-run")


# ---------------------------------------------------------------------------
# Bushy-tree lemmas.

@_replayer("bushiness_verdict")
def _replay_bushiness_verdict(cert: Mapping) -> None:
    kind = cert["kind"]
    g_spec, stem, depth, n, node_set, big = _fields(
        cert, "g", "stem", "depth", "n", "set", "big")
    g = OrderFunction.from_spec(g_spec)
    stem = tuple(stem)
    B = frozenset(tuple(x) for x in node_set)
    _check(is_n_big(B, n, g, stem, depth) == big, kind,
           f"bigness verdict flipped for n = {n}")
    if big:
        tree = TreeWitness.from_jsonable(_fields(cert, "witness")[0])
        _check(tree.stem == stem, kind, "witness stem differs")
        try:
            verify_bushy(tree, n, g, exactly=True, leaves_in=B)
        except MalformedTree as exc:
            raise ReplayMismatch(kind, f"witness tree fails to verify: {exc}")


@_replayer("closure_result")
def _replay_closure_result(cert: Mapping) -> None:
    kind = cert["kind"]
    g_spec, n, depth, node_set, closed = _fields(
        cert, "g", "n", "depth", "set", "closure")
    g = OrderFunction.from_spec(g_spec)
    B = frozenset(tuple(x) for x in node_set)
    got = closure(B, n, g, depth)
    _check(sorted(list(x) for x in got) == closed, kind,
           "closure changed under re-run")
    _check(B <= got, kind, "closure does not contain the set")
    _check(closure(got, n, g, depth) == got, kind, "closure is not idempotent")


@_replayer("pigeonhole_witness")
def _replay_pigeonhole(cert: Mapping) -> None:
    kind = cert["kind"]
    g_spec, stem, depth, k, colors, chosen, tree_js = _fields(
        cert, "g", "stem", "depth", "k", "colors", "chosen_color", "witness")
    g = OrderFunction.from_spec(g_spec)
    stem = tuple(stem)
    by_color: dict[int, set] = {}
    for node, color in colors:
        by_color.setdefault(color, set()).add(tuple(node))
    whole = frozenset().union(*by_color.values()) if by_color else frozenset()
    _check(is_n_big(whole, 6 * k, g, stem, depth), kind,
           "the colored set is not 6k-big")
    chosen_class = frozenset(by_color.get(chosen, set()))
    _check(is_n_big(chosen_class, 2 * k, g, stem, depth), kind,
           f"color class {chosen} is not 2k-big")
    tree = TreeWitness.from_jsonable(tree_js)
    _check(tree.stem == stem, kind, "witness stem differs")
    try:
        verify_bushy(tree, 2 * k, g, exactly=True, leaves_in=chosen_class)
    except MalformedTree as exc:
        raise ReplayMismatch(kind, f"witness tree fails to verify: {exc}")


@_replayer("fusion_intersection")
def _replay_fusion_intersection(cert: Mapping) -> None:
    kind = cert["kind"]
    g_spec, k, ambient_js, first, second, size = _fields(
        cert, "g", "k", "ambient", "first", "second", "intersection_size")
    g = OrderFunction.from_spec(g_spec)
    ambient = TreeWitness.from_jsonable(ambient_js)
    F = frozenset(tuple(x) for x in first)
    C = frozenset(tuple(x) for x in second)
    verdict = intersection_bushiness_check(ambient, F, C, k, g)
    _check(isinstance(verdict, LemmaHolds), kind,
           f"intersection check no longer holds: {verdict}")
    _check(len(F & C) == size, kind, "intersection size disagrees")


@_replayer("union_counterexample")
def _replay_union_counterexample(cert: Mapping) -> None:
    kind = cert["kind"]
    g_spec, depth, stem, n, m, union, part_m, part_n = _fields(
        cert, "g", "depth", "stem", "n", "m", "union", "part_small_m",
        "part_small_n")
    g = OrderFunction.from_spec(g_spec)
    stem = tuple(stem)
    U = frozenset(tuple(x) for x in union)
    B1 = frozenset(tuple(x) for x in part_m)
    B2 = frozenset(tuple(x) for x in part_n)
    _check(B1 | B2 == U, kind, "parts do not cover the union")
    _check(is_n_big(U, n + m - 1, g, stem, depth), kind,
           "the union is not (n+m-1)-big")
    _check(not is_n_big(B1, m, g, stem, depth), kind, "first part is m-big")
    _check(not is_n_big(B2, n, g, stem, depth), kind, "second part is n-big")


@_replayer("sweep_summary")
def _replay_sweep_summary(cert: Mapping) -> None:
    kind = cert["kind"]
    g_spec, depth, pairs, stems, instances, counterexamples = _fields(
        cert, "g", "depth", "pairs", "stems", "instances", "counterexamples")
    g = OrderFunction.from_spec(g_spec)
    out = union_smallness_sweep(
        g, depth, [tuple(p) for p in pairs], [tuple(s) for s in stems])
    _check(out["instances"] == instances, kind,
           f"instance count is now {out['instances']}, recorded {instances}")
    _check(len(out["counterexamples"]) == counterexamples, kind,
           "counterexample count changed under re-run")
