"""Certificate replay: re-check recorded witnesses against the current build.

Every audit and construction in the package emits plain-dict certificates
carrying enough data to re-verify their claims from scratch.  This module
is the single registry mapping certificate kinds to replayers.  A replayer
takes the fields it reads, each decoded by the rule for its name (bound per
kind at registration) and passed positionally, with no dict of fields in
between; it then recomputes the cheap claims exactly and re-runs the
budgeted ones at the recorded budgets, raising ReplayMismatch on the first
disagreement.
Structural problems (missing fields, unknown kinds, fields that break
their rule) are MalformedCertificate instead: a broken file is not a
refuted claim.  The one decode pass names its own failure: the missing
required fields if any, else the field it stopped at.

The same rules write certificates: `certificate` encodes native values
by them, for exactly its replayer's fields.  Every module builds its
kinds through it; bushy, forcing and reductions import it at call time,
since this module imports them.  Only the DNR audit's four kinds stay
dict literals: it writes thousands of certificates a run.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from typing import Callable

from . import bushy
from .bushy import (
    LemmaHolds,
    MalformedTree,
    Node,
    OrderFunction,
    TreeWitness,
    intersection_bushiness_check,
    is_n_big,
    union_smallness_sweep,
    verify_bushy,
)
from .dyadic import DyadicRational
from .errors import MalformedCertificate, ReplayMismatch
from .forcing import (
    FiniteFunctional,
    ForcingCondition,
    _c_m_minimal,
    _diagonal_pair,
    c_m_set,
)
from .machine import EnumerationScan, domain_window, gamma, halted_value
from .numbering import (
    LownessVerdict,
    lowness_bound_check,
    snr_from_immune_oracle,
    union_cylinder_measure,
)
from .oracle import first_members, oracle_from_spec, oracle_to_spec
from .reductions import _side_codes, diagonal_set_index, first_slice_index
from .stages import ei_not_coei, interval_slice_index

# ---------------------------------------------------------------------------
# Field rules: a decoder, what the field must hold and an encoder.  A
# decoder returns the decoded value or raises; nothing is coerced, so 2.0,
# true or "2" where a natural belongs breaks the rule.

def _natural(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError
    return value


def _naturals(value) -> list[int]:
    if type(value) is not list or not set(map(type, value)) <= {int} \
            or min(value, default=0) < 0:
        raise ValueError
    return value


def _bits(value) -> list[int]:
    if max(_naturals(value), default=0) > 1:
        raise ValueError
    return value


def _node(value) -> Node:
    return tuple(_naturals(value))


def _lists_of_naturals(value) -> list[list[int]]:
    # C-level passes over the whole value: a trace's node lists hold tens
    # of thousands of integers
    if type(value) is not list or not set(map(type, value)) <= {list}:
        raise ValueError
    _naturals(list(chain.from_iterable(value)))
    return value


def _node_set(value) -> frozenset[Node]:
    return frozenset(map(tuple, _lists_of_naturals(value)))


def _coloring(value) -> dict[int, frozenset[Node]]:
    """[[node, color], ...] as the node set of each color."""
    if type(value) is not list:
        raise ValueError
    classes: dict[int, set[Node]] = {}
    for node, color in value:
        classes.setdefault(_natural(color), set()).add(_node(node))
    return {color: frozenset(nodes) for color, nodes in classes.items()}


def _lowness_verdict(value) -> LownessVerdict:
    # only the verdict's own fields: a nested "verdict" key would recurse
    if type(value) is not dict or not value.keys() <= {*LownessVerdict.__match_args__}:
        raise ValueError
    return LownessVerdict(**{name: decode_field("verdict", name, part)
                             for name, part in value.items()})


def _one_of(*values) -> tuple[Callable, str, None]:
    allowed = {(type(v), v) for v in values}

    def decode(value):
        if (type(value), value) not in allowed:
            raise ValueError
        return value
    return decode, f"one of {list(values)}", None


_LISTS = "a list of lists of naturals"

# The rule of every field name, for certificates and --in files alike: its
# decoder, what it must hold, and how a certificate writes it (None: as given).
_FIELDS: dict[str, tuple[Callable, str, Callable | None]] = {
    **dict.fromkeys((
        "a", "base", "budget", "c", "candidate", "cap", "chosen_color",
        "claimed_bound", "count", "counterexamples", "depth", "e", "e0", "e1",
        "e_max", "e_prime", "eval_budget", "f", "f_value", "first_violation",
        "fixpoint_budget", "h", "h_e", "horizon", "instances", "interval_count",
        "intersection_size", "k", "m", "n", "p", "position_horizon", "probes",
        "q", "record_count", "smallness_bound", "stages", "tail_exponent",
        "term_cap", "tree_bushiness", "value", "value_cap", "winner"),
        (_natural, "naturals", None)),
    **dict.fromkeys(("side_code", "complement_code"),
                    (lambda v: v if v is None else _natural(v), "naturals or null", None)),
    **dict.fromkeys(("members", "ones", "order_prefix", "q_values", "w_winner"),
                    (_naturals, "a list of naturals", list)),
    **dict.fromkeys(("prefix", "sigma"), (_bits, "a list of bits (0 or 1)", list)),
    **dict.fromkeys(("new_stem", "stem", "tau"),
                    (_node, "a node (a list of naturals)", list)),
    **dict.fromkeys(("fused", "pairs", "stems"),
                    (lambda v: list(map(tuple, _lists_of_naturals(v))), _LISTS,
                     lambda v: list(map(list, v)))),
    **dict.fromkeys(("badset", "badset_before", "c_m_minimal", "closure", "first",
                     "part_small_m", "part_small_n", "second", "set", "union"),
                    (_node_set, _LISTS, lambda v: sorted(map(list, v)))),
    "sets": (lambda v: tuple(map(frozenset, _lists_of_naturals(v))), _LISTS,
             lambda v: sorted(map(sorted, v))),
    **dict.fromkeys(("ambient", "tree", "witness"), (
        lambda v: TreeWitness(_node(v["stem"]), _node_set(v["nodes"])),
        "a tree {stem, nodes} of lists of naturals", TreeWitness.to_jsonable)),
    "colors": (_coloring, "a list of [node, color] pairs",
               lambda v: sorted([list(node), color] for color, nodes in v.items()
                                for node in nodes)),
    "g": (OrderFunction.from_spec, "an order function spec", OrderFunction.to_spec),
    "functional": (FiniteFunctional.from_jsonable, "a functional {depth, entries}",
                   FiniteFunctional.to_jsonable),
    "oracle": (oracle_from_spec, "an oracle spec", oracle_to_spec),
    **dict.fromkeys(("measure", "partial_sum", "violating_term"),
                    (DyadicRational.from_jsonable, "a dyadic rational {num, exp}",
                     DyadicRational.to_jsonable)),
    "verdict": (_lowness_verdict, "a lowness verdict {holds, partial_sum, ...}",
                LownessVerdict.to_jsonable),
    **dict.fromkeys(("big", "holds"), _one_of(True, False)),
    "case": _one_of("case1", "case2"),
    "side": _one_of("oracle", "complement"),
}


def decode_field(owner: str, name: str, value):
    """`value` decoded by the rule for fields named `name`, else
    MalformedCertificate (a ValueError) naming `owner`."""
    decode, wanted, _ = _FIELDS[name]
    try:
        return decode(value)
    except (KeyError, TypeError, ValueError) as exc:
        got = f"{value!r:.80}" + (f" ({exc})" if str(exc) else "")
        raise MalformedCertificate(
            f"{owner} field {name!r} must hold {wanted}, got {got}") from None


# ---------------------------------------------------------------------------
# The registry.

REPLAYERS: dict[str, Callable[[Mapping], None]] = {}
# kind -> (its required fields, its optional ones), from the replayer's parameters
_PARAMETERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}


class _Refuted(Exception):
    """A recorded claim that fails to re-derive; the registry adds the kind."""


def _check(ok: bool, detail: str) -> None:
    if not ok:
        raise _Refuted(detail)


def _replayer(kind: str):
    """Register `fn` for `kind`: its parameters name the fields it reads,
    and one with a default is an optional field.  Their decoders are bound
    here, and their names recorded for `certificate`.  The reader decodes
    the required fields in order and passes them positionally; it reads
    optional fields only for kinds that have them.  When a field fails,
    the reader names the missing required fields if any, else that field,
    through decode_field: every field before it has decoded, so it is the
    first broken one in parameter order."""
    def register(fn: Callable[..., None]):
        code, defaults = fn.__code__, fn.__defaults__ or ()
        names = code.co_varnames[:code.co_argcount]
        unruled = [name for name in names if name not in _FIELDS]
        if unruled:
            raise TypeError(f"{fn.__name__} reads fields with no rule: {unruled}")
        # defaults follow the required parameters, so every field is positional
        cut = len(names) - len(defaults)
        required = [(name, _FIELDS[name][0]) for name in names[:cut]]
        optional = [(name, _FIELDS[name][0], default)
                    for name, default in zip(names[cut:], defaults)]

        def replay(cert: Mapping) -> None:
            args = []
            try:
                for name, decode in required:
                    args.append(decode(cert[name]))
                for name, decode, default in optional:
                    args.append(decode(cert[name]) if name in cert else default)
            except (KeyError, TypeError, ValueError):
                missing = [field for field, _ in required if field not in cert]
                if missing:
                    raise MalformedCertificate(f"{kind} certificate lacks fields {missing}")
                decode_field(kind, name, cert[name])
                raise
            try:
                fn(*args)
            except _Refuted as exc:
                raise ReplayMismatch(kind, str(exc)) from None

        REPLAYERS[kind] = replay
        _PARAMETERS[kind] = (tuple(name for name, _ in required),
                             tuple(name for name, _, _ in optional))
        return fn
    return register


def certificate(kind: str, **fields) -> dict:
    """The certificate `{"kind": kind, ...}` of native field values, each
    written by the rule for its name.  The fields must be the parameters
    of the kind's replayer, else TypeError: every required one, and an
    optional one may be absent or None (then it is left out)."""
    required, optional = _PARAMETERS[kind]
    missing = [name for name in required if name not in fields]
    unknown = [name for name in fields if name not in required and name not in optional]
    if missing or unknown:
        raise TypeError(f"{kind} certificate: missing fields {missing}, unknown fields {unknown}")
    cert = {"kind": kind}
    for name, value in fields.items():
        if value is None and name in optional:
            continue
        encode = _FIELDS[name][2]
        cert[name] = value if encode is None else encode(value)
    return cert


def replay_certificate(cert: Mapping) -> str:
    """Re-verify one certificate; returns its kind, raises on any failure."""
    if type(cert) is not dict and not isinstance(cert, Mapping):
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


def _check_exactly_bushy(tree: TreeWitness, stem: Node, n: int, g: OrderFunction,
                         leaves_in: frozenset[Node] | None = None) -> None:
    _check(tree.stem == stem, "tree stem differs from the recorded stem")
    try:
        verify_bushy(tree, n, g, exactly=True, leaves_in=leaves_in)
    except MalformedTree as exc:
        raise _Refuted(f"tree is not exactly {n}-bushy: {exc}") from None


# ---------------------------------------------------------------------------
# Forcing extensions.

@_replayer("non_total_extension")
def _replay_non_total(g, functional, k, stem, m, smallness_bound, c_m_minimal,
                      badset_before) -> None:
    _check(smallness_bound == 7 * k, f"smallness bound {smallness_bound} is not 7k")
    cm = c_m_set(functional, g, stem, m)
    _check(not is_n_big(cm, smallness_bound, g, stem, functional.depth),
           f"C_{m} is {smallness_bound}-big above {stem}: the non-totality claim fails")
    _check(_c_m_minimal(cm, stem) == c_m_minimal,
           "recorded minimal deciding set disagrees with recomputation")
    try:
        ForcingCondition(stem, badset_before | c_m_minimal, g)
    except ValueError as exc:
        raise _Refuted(f"extended condition is invalid: {exc}") from None


@_replayer("diagonal_extension")
def _replay_diagonal(g, functional, k, tau, tree, tree_bushiness, fused, e0, e1,
                     q, q_values, m, c, cap, winner, w_winner, position_horizon,
                     eval_budget, fixpoint_budget, badset, new_stem, case) -> None:
    # fused trees are 2k-bushy and zero-forcing trees k-bushy
    _check(tree_bushiness >= k, f"the tree is less than {k}-bushy")
    _check_exactly_bushy(tree, tau, tree_bushiness, g)
    _check(len(fused) == c, f"{len(fused)} fused pairs recorded, c = {c}")
    leaves = tree.leaves()
    for leaf in leaves:
        out = functional.output(leaf)
        for pos, bit in fused:
            _check(len(out) > pos and out[pos] == bit,
                   f"leaf {leaf} does not force position {pos} to {bit}")
        _check(not any(leaf[:len(b)] == b for b in badset),
               f"leaf {leaf} extends a recorded bad string")
    v0, v1 = q_values
    _check(halted_value(q, e0, eval_budget) == v0, f"q({e0}) no longer evaluates to {v0}")
    _check(halted_value(q, e1, eval_budget) == v1, f"q({e1}) no longer evaluates to {v1}")
    _check(m == max(v0, v1), "m is not max of the q values")
    _check(c == min(2 * m + 1, cap), "c is not min(2m+1, cap)")
    w0 = {p for p, i in fused if i == 0}
    w1 = {p for p, i in fused if i == 1}
    _check(winner == (0 if len(w0) > m else 1), "winner side disagrees with the fused tally")
    w_win = (w0, w1)[winner]
    _check(sorted(w_win) == w_winner, "recorded winner set disagrees with the fused pairs")
    _check(len(w_win) > m, "winner set does not exceed m")
    e_win = (e0, e1)[winner]
    _check(domain_window(e_win, position_horizon, eval_budget) == w_win,
           f"W_{{{e_win}}} below {position_horizon} disagrees with the winner set")
    if case == "case2":
        _check(all(i == 0 for _, i in fused), "case2 certificate carries a fused one-bit")
    _check(new_stem == min(leaves), "new stem is not the least leaf of the tree")
    if c == cap:
        # masks are derived from the full fused list only when it was kept whole
        _check(_diagonal_pair(q, fused, position_horizon, fixpoint_budget) == (e0, e1),
               "recursion-theorem indices fail to reconstruct")


# ---------------------------------------------------------------------------
# Diagonal-value audits.

# These replayers run thousands of times a trace: a message that reads
# the fields is built only when its check fails.

def _check_diagonal(e: int, value: int, h_e: int, f: int, f_value: int, budget: int) -> None:
    _check(h_e == diagonal_set_index(e), "transformed index fails to rebuild")
    if halted_value(e, e, budget) != value:
        raise _Refuted(f"diagonal value at {e} is no longer {value}")
    if halted_value(f, h_e, budget) != f_value:
        raise _Refuted(f"f({h_e}) is no longer {f_value}")


@_replayer("ebi_violation")
def _replay_ebi(e, value, h_e, f, f_value, budget, oracle, side, members,
                horizon) -> None:
    _check_diagonal(e, value, h_e, f, f_value, budget)
    _check(members == sorted(gamma(value)), "members are not the decoded diagonal value")
    _check(len(members) == f_value + 1, "member count is not the claimed bound plus one")
    bit = 1 if side == "oracle" else 0
    _check(members == list(first_members(oracle, len(members), value=bit)),
           f"members are not the first {len(members)} of the {side} side")
    _check(sorted(domain_window(h_e, horizon, budget)) == members,
           "enumerated set of the transformed index disagrees with members")


@_replayer("dnr_value")
def _replay_dnr_value(e, value, h_e, f, f_value, budget, oracle, side_code,
                      complement_code, candidate) -> None:
    _check_diagonal(e, value, h_e, f, f_value, budget)
    _check(_side_codes(oracle, f_value + 1) == (side_code, complement_code),
           "side codes disagree with the oracle slices")
    defined = [x for x in (side_code, complement_code) if x is not None]
    _check(bool(defined) and candidate == min(defined),
           "candidate is not the least defined side code")
    _check(candidate != value, "candidate collides with the diagonal value")
    _check(candidate <= (1 << (2 * f_value + 2)) - 1, "candidate exceeds the pigeonhole bound")


@_replayer("diagonal_diverges")
def _replay_diagonal_diverges(e, budget) -> None:
    if halted_value(e, e, budget) is not None:
        raise _Refuted(f"phi_{e}({e}) now halts within {budget} steps")


@_replayer("f_unconverged")
def _replay_f_unconverged(e, h_e, f, budget) -> None:
    _check(h_e == diagonal_set_index(e), "transformed index fails to rebuild")
    _check(halted_value(f, h_e, budget) is None, f"f({h_e}) now halts within {budget} steps")


# ---------------------------------------------------------------------------
# Blocking prefixes and manufactured intervals.

@_replayer("blocking_finite")
def _replay_blocking_finite(e, f, f_value, members, budget, sigma) -> None:
    _check(halted_value(f, e, budget) == f_value, f"f({e}) is no longer {f_value}")
    scan = EnumerationScan(e, budget)
    _check(not scan.grows(), "the set still grows at the checkpoint: not the finite case")
    _check(scan.members() == members, "enumerated members disagree with the record")
    _check(len(members) > f_value, "member count does not exceed the bound")
    _check(all(x < len(sigma) and sigma[x] == 1 for x in members),
           "some member is not a one of sigma")


@_replayer("blocking_infinite")
def _replay_blocking_infinite(e, f, e_prime, f_value, members, order_prefix,
                              horizon, budget, sigma) -> None:
    _check(first_slice_index(e, f) == e_prime, "slice index fails to rebuild")
    _check(halted_value(f, e_prime, budget) == f_value,
           f"f on the slice index is no longer {f_value}")
    scan = EnumerationScan(e, budget)
    _check(scan.grows(), "the set no longer grows at the checkpoint")
    _check(list(scan.first(f_value + 1)) == order_prefix,
           "canonical order prefix disagrees with the record")
    _check(sorted(order_prefix) == members, "members are not the sorted order prefix")
    _check(sorted(domain_window(e_prime, horizon, budget)) == members,
           "the slice index enumerates a different set")
    _check(all(x < len(sigma) and sigma[x] == 1 for x in members),
           "some member is not a one of sigma")


@_replayer("interval_slice")
def _replay_interval_slice(e, a, base, count, claimed_bound, budget) -> None:
    _check(interval_slice_index(e, base) == a, "interval index fails to rebuild")
    _check(halted_value(e, a, budget) == claimed_bound,
           f"phi_{e}({a}) is no longer {claimed_bound}")
    _check(count == claimed_bound + 1, "interval size is not the bound plus one")
    _check(domain_window(a, base + count + 2, budget) == frozenset(range(base, base + count)),
           "the manufactured set is not the recorded fresh interval")


@_replayer("stage_summary")
def _replay_stage_summary(stages, budget, value_cap, probes, ones, record_count,
                          interval_count) -> None:
    trace, g = ei_not_coei(stages, budget, value_cap=value_cap, probes=probes)
    _check(len(trace.records) == record_count, "stage record count changed under re-run")
    _check(len(trace.interval_records()) == interval_count,
           "interval record count changed under re-run")
    _check(sorted(x for x, b in g.items() if b == 1) == ones,
           "the constructed set's ones changed under re-run")


# ---------------------------------------------------------------------------
# Numberings and measures.

@_replayer("snr_slice")
def _replay_snr_slice(oracle, h, e, budget, value) -> None:
    got = snr_from_immune_oracle(oracle, h, e, budget)
    _check(got == value, f"slice code at {e} is now {got}, recorded {value}")


@_replayer("cylinder_measure")
def _replay_cylinder_measure(sets, term_cap, measure, tail_exponent=None) -> None:
    got = union_cylinder_measure(sets, term_cap)
    _check(got == measure, f"measure is now {got}, recorded {measure}")
    if tail_exponent is not None:
        _check(got <= DyadicRational.half_power(tail_exponent),
               "measure exceeds the recorded tail bound")


@_replayer("lowness_bound")
def _replay_lowness_bound(h, p, f, c, e_max, budget, verdict) -> None:
    _check(lowness_bound_check(h, p, f, c, e_max, budget) == verdict,
           "termwise verdict changed under re-run")


# ---------------------------------------------------------------------------
# Bushy-tree lemmas.

@_replayer("bushiness_verdict")
def _replay_bushiness_verdict(g, stem, depth, n, set, big, witness=None) -> None:
    _check(is_n_big(set, n, g, stem, depth) == big, f"bigness verdict flipped for n = {n}")
    if big:
        if witness is None:
            raise MalformedCertificate("bushiness_verdict certificate lacks fields ['witness']")
        _check_exactly_bushy(witness, stem, n, g, set)


@_replayer("closure_result")
def _replay_closure_result(g, n, depth, set, closure) -> None:
    # through the module: the parameter shadows bushy.closure
    got = bushy.closure(set, n, g, depth)
    _check(got == closure, "closure changed under re-run")
    _check(set <= got, "closure does not contain the set")
    _check(bushy.closure(got, n, g, depth) == got, "closure is not idempotent")


@_replayer("pigeonhole_witness")
def _replay_pigeonhole(g, stem, depth, k, colors, chosen_color, witness) -> None:
    _check(is_n_big(frozenset().union(*colors.values()), 6 * k, g, stem, depth),
           "the colored set is not 6k-big")
    chosen = colors.get(chosen_color, frozenset())
    _check(is_n_big(chosen, 2 * k, g, stem, depth), f"color class {chosen_color} is not 2k-big")
    _check_exactly_bushy(witness, stem, 2 * k, g, chosen)


@_replayer("fusion_intersection")
def _replay_fusion_intersection(g, k, ambient, first, second, intersection_size) -> None:
    verdict = intersection_bushiness_check(ambient, first, second, k, g)
    _check(isinstance(verdict, LemmaHolds), f"intersection check no longer holds: {verdict}")
    _check(len(first & second) == intersection_size, "intersection size disagrees")


@_replayer("union_counterexample")
def _replay_union_counterexample(g, depth, stem, n, m, union, part_small_m,
                                 part_small_n) -> None:
    _check(part_small_m | part_small_n == union, "parts do not cover the union")
    _check(is_n_big(union, n + m - 1, g, stem, depth), "the union is not (n+m-1)-big")
    _check(not is_n_big(part_small_m, m, g, stem, depth), "first part is m-big")
    _check(not is_n_big(part_small_n, n, g, stem, depth), "second part is n-big")


@_replayer("sweep_summary")
def _replay_sweep_summary(g, depth, pairs, stems, instances, counterexamples) -> None:
    out = union_smallness_sweep(g, depth, pairs, stems)
    _check(out["instances"] == instances,
           f"instance count is now {out['instances']}, recorded {instances}")
    _check(len(out["counterexamples"]) == counterexamples,
           "counterexample count changed under re-run")
