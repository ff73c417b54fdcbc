"""Reductions between bi-immunity, DNR values, and blocking prefixes.

The central object is an index transform h: given any n, h(n) is an index
whose r.e. set is exactly gamma(phi_n(n)), the finite set coded by the
diagonal value.  h is total and never runs n: it is a pure s-m-n splice.
On top of it sit the value extractors: an oracle X and a claimed immunity
bound f yield a candidate DNR value for each n by reading off the first
f+1 members of X (and of its complement) and coding them back to naturals.
If the candidate ever collides with a halting diagonal, the collision is
itself a finite certificate that X or its complement contains a small
fully-enumerated r.e. set, i.e. that the claimed immunity bound fails.

Everything here is budgeted and certificate-producing; replay semantics
for the emitted certificates live in the certs module.
"""

from __future__ import annotations

from functools import lru_cache

from .asm import _template_index, assemble_index
from .errors import PreconditionViolated, WitnessBudgetExceeded
from .machine import (
    EnumerationScan,
    ProgramIndex,
    gamma,
    gamma_inverse,
    halted_value,
    self_reference,
    smn_fill,
)
from .oracle import BitOracle, PatchedOracle, first_members, oracle_to_spec


# phi(pair(n, x)): run phi_n(n), then halt iff bit x of the value is set.
# Divergence of the inner call is inherited, so the filled index enumerates
# gamma(phi_n(n)) and enumerates nothing when the diagonal diverges.
_SET_DRIVER_INDEX = assemble_index("""
    left r1, r0
    right r2, r0
    univ r3, r1, r1
    load r4, 2
shift:
    jz r2, probe
    div r3, r3, r4
    load r5, 1
    sub r2, r2, r5
    jmp shift
probe:
    mod r5, r3, r4
    jz r5, stuck
    halt r2
stuck:
""")


def diagonal_set_index(n: ProgramIndex) -> ProgramIndex:
    """Total transform h with W_{h(n)} = gamma(phi_n(n)).

    Built without evaluating n; the diagonal runs only when the returned
    index is itself evaluated.
    """
    return smn_fill(_SET_DRIVER_INDEX, n)


def _claimed_bound(f: ProgramIndex, n: ProgramIndex, budget: int) -> int:
    """f at the transformed index, or WitnessBudgetExceeded."""
    value = halted_value(f, diagonal_set_index(n), budget)
    if value is None:
        raise WitnessBudgetExceeded(
            f"f = {f} did not converge on the transformed index within {budget} steps")
    return value


@lru_cache(maxsize=256)
def _side_codes(oracle: BitOracle, k: int) -> tuple[int | None, int | None]:
    """Codes of the first k members of the oracle and of its complement.

    A side with fewer than k members below its structural scan bound yields
    None.  At least one side is always full: the two sides partition the
    naturals, so one of them has k members among the first 2k positions.
    Computed once per (oracle, k): an audit and its replay ask for a few
    widths thousands of times.
    """
    codes = []
    for value in (1, 0):
        side = first_members(oracle, k, value=value)
        codes.append(gamma_inverse(side) if len(side) == k else None)
    assert codes[0] is not None or codes[1] is not None
    return codes[0], codes[1]


def dnr_candidate(X: BitOracle, f: ProgramIndex, n: ProgramIndex, budget: int) -> int:
    """min of the two side codes at width f(h(n)) + 1.

    Whenever the result equals a halting phi_n(n), one side's first slice
    is exactly gamma(phi_n(n)): a fully enumerated r.e. subset of that side
    exceeding the claimed bound.  So on an oracle whose sides genuinely
    avoid such slices, this value is diagonally nonrecursive.
    """
    k = _claimed_bound(f, n, budget) + 1
    code, co_code = _side_codes(X, k)
    return min(c for c in (code, co_code) if c is not None)


def dnr_candidate_bound(f: ProgramIndex, n: ProgramIndex, budget: int) -> int:
    """Pointwise bound: one side has its first f+1 members within [0, 2f+1],
    so the candidate is at most the full code of that interval."""
    fv = _claimed_bound(f, n, budget)
    return (1 << (2 * fv + 2)) - 1


def _diagonal_outcomes(f: ProgramIndex, e_max: int, budget: int):
    """The oracle-free half of the audit, one e <= e_max at a time:
    (e, phi_e(e), h(e), f(h(e))), with None for the diagonal's value when
    it diverges within budget (and then no h(e)) and for f's when f does
    not converge on h(e)."""
    for e in range(e_max + 1):
        value = halted_value(e, e, budget)
        if value is None:
            yield e, None, None, None
            continue
        h_e = diagonal_set_index(e)
        yield e, value, h_e, halted_value(f, h_e, budget)


def _audit_certs(X: BitOracle, f: ProgramIndex, budget: int, outcomes):
    """The audit's certificates for `_diagonal_outcomes` against X, in
    order."""
    oracle_spec = oracle_to_spec(X)
    for e, v, h_e, f_value in outcomes:
        if v is None:
            yield {"kind": "diagonal_diverges", "e": e, "budget": budget}
            continue
        if f_value is None:
            yield {"kind": "f_unconverged", "e": e, "h_e": h_e, "f": f, "budget": budget}
            continue
        code, co_code = _side_codes(X, f_value + 1)
        base = {
            "e": e,
            "value": v,
            "h_e": h_e,
            "f": f,
            "f_value": f_value,
            "budget": budget,
            "oracle": oracle_spec,
        }
        if code == v or co_code == v:
            witness = sorted(gamma(v))
            yield {
                "kind": "ebi_violation",
                **base,
                "side": "oracle" if code == v else "complement",
                "members": witness,
                "horizon": (max(witness) + 2) if witness else 2,
            }
        else:
            yield {
                "kind": "dnr_value",
                **base,
                "side_code": code,
                "complement_code": co_code,
                "candidate": min(c for c in (code, co_code) if c is not None),
            }


def dnr_reduction_audit(X: BitOracle, f: ProgramIndex, e_max: int, budget: int) -> list[dict]:
    """Classify every diagonal e <= e_max against the oracle's slices.

    For each e with phi_e(e) = v within budget, exactly one certificate is
    emitted: an immunity violation if some side's first f+1 members are
    exactly gamma(v) (that side then provably contains the fully enumerated
    W at index diagonal_set_index(e), of size f+1 > f), else a DNR-value
    certificate recording that every candidate avoids v.  Diverging
    diagonals and non-converging f probes are recorded, not errors.
    """
    return list(_audit_certs(X, f, budget, _diagonal_outcomes(f, e_max, budget)))


# Most audit-and-flip rounds patch_oracle_dnr_only takes before giving up.
PATCH_ROUNDS = 64


def patch_oracle_dnr_only(f: ProgramIndex, e_max: int, budget: int,
                          start: BitOracle) -> tuple[BitOracle, list[dict]]:
    """Greedily patch an oracle until its audit emits no immunity violations.

    Each round flips the least member of the first violating slice, which
    removes that slice from the offending side.  Returns the patched oracle
    and its clean audit; RuntimeError if the rounds run out.  The diagonals
    and f's values do not depend on the oracle: they are evaluated once,
    and each round only classifies them.
    """
    outcomes = list(_diagonal_outcomes(f, e_max, budget))
    oracle = start
    for _ in range(PATCH_ROUNDS):
        certs = []
        for cert in _audit_certs(oracle, f, budget, outcomes):
            if cert["kind"] == "ebi_violation":
                break
            certs.append(cert)
        else:
            return oracle, certs
        pos = cert["members"][0]
        flipped = 1 - oracle.bit(pos)
        if isinstance(oracle, PatchedOracle):
            oracle = oracle.with_patch(pos, flipped)
        else:
            oracle = PatchedOracle(oracle, ((pos, flipped),))
    raise RuntimeError(f"no violation-free patch within {PATCH_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# Blocking prefixes: forcing a finite r.e. set into the ones of a string.

# phi(pair(u, x)) where u is the index's own acting self: compute
# k = f(u) + 1, then dovetail the source program's domain in canonical
# order (by (max(steps, y), y), matching EnumerationScan) and halt
# iff x shows up among the first k emissions.  The braces mark the
# constants spliced in per (source, f) pair.
_FIRST_SLICE_DRIVER = """
    left r1, r0
    right r2, r0
    load r3, {f}
    univ r4, r3, r1
    load r5, 1
    add r4, r4, r5
    load r6, {source}
    load r7, 1
outer:
    load r8, 0
inner:
    budv r9, r6, r8, r7
    jz r9, next_y
    sub r10, r7, r5
    budv r11, r6, r8, r10
    jz r11, fresh
    sub r12, r7, r8
    sub r13, r8, r7
    add r12, r12, r13
    jz r12, fresh
    jmp next_y
fresh:
    sub r12, r2, r8
    sub r13, r8, r2
    add r12, r12, r13
    jz r12, hit
    sub r4, r4, r5
    jz r4, stuck
next_y:
    sub r12, r7, r8
    jz r12, next_m
    add r8, r8, r5
    jmp inner
next_m:
    add r7, r7, r5
    jmp outer
hit:
    halt r8
stuck:
"""
_first_slice_driver = _template_index(_FIRST_SLICE_DRIVER)


def first_slice_index(source: ProgramIndex, f: ProgramIndex) -> ProgramIndex:
    """An index e' enumerating the first f(e') + 1 elements of W_source.

    Self-referential: the returned index computes its own claimed bound by
    running f on itself, then releases exactly that many elements of the
    source's domain in canonical enumeration order.  The driver is
    assembled once; each call splices f and source into its `load`
    instructions.
    """
    return self_reference(_first_slice_driver(f=f, source=source))


def blocking_prefix(A_prefix: tuple[int, ...], e: ProgramIndex, f: ProgramIndex,
                    budget: int) -> tuple[tuple[int, ...], dict]:
    """A bit string sigma whose every extension contains a bad r.e. set.

    Finite case: the budgeted W_e already exceeds f(e) and sits inside the
    prefix's ones, so sigma is the prefix itself and the certificate records
    the enumerated set.  Infinite case (W_e still growing at the budget
    checkpoint): a self-referential slice index e' pins down f(e') + 1
    elements of W_e; sigma extends the prefix with ones exactly at those
    positions.  Either way the certificate is finite and replayable.
    """
    # at call time: certs imports this module, and is fully loaded before any call runs
    from .certs import certificate

    A_prefix = tuple(A_prefix)
    if any(b not in (0, 1) for b in A_prefix):
        raise ValueError("prefix bits must be 0 or 1")
    bound = halted_value(f, e, budget)
    if bound is None:
        raise WitnessBudgetExceeded(f"f = {f} did not converge on {e} within {budget} steps")
    scan = EnumerationScan(e, budget)

    if not scan.grows():
        members = scan.members()
        if len(members) <= bound:
            raise PreconditionViolated(
                f"W_e has only {len(members)} members at this budget, bound is {bound}")
        outside = [w for w in members if w >= len(A_prefix) or A_prefix[w] != 1]
        if outside:
            raise PreconditionViolated(
                f"enumerated members {outside} are not ones of the prefix")
        return A_prefix, certificate("blocking_finite", e=e, f=f, f_value=bound,
                                     members=members, budget=budget, sigma=A_prefix)

    slice_idx = first_slice_index(e, f)
    f_slice = halted_value(f, slice_idx, budget)
    if f_slice is None:
        raise WitnessBudgetExceeded(
            f"f = {f} did not converge on the slice index within {budget} steps")
    k = f_slice + 1
    order_prefix = scan.first(k)
    if len(order_prefix) < k:  # then the scan has read all of W_{e,budget}
        raise WitnessBudgetExceeded(
            f"only {len(order_prefix)} elements enumerated, slice needs {k}")
    slice_members = sorted(order_prefix)
    sigma = list(A_prefix)
    for w in slice_members:
        if w < len(A_prefix):
            if A_prefix[w] != 1:
                raise PreconditionViolated(
                    f"slice member {w} lands on a zero of the prefix")
        else:
            while len(sigma) <= w:
                sigma.append(0)
            sigma[w] = 1
    return tuple(sigma), certificate(
        "blocking_infinite", e=e, f=f, e_prime=slice_idx, f_value=f_slice,
        members=slice_members, order_prefix=order_prefix,
        horizon=max(slice_members) + 2, budget=budget, sigma=sigma)
