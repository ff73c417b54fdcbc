"""Table numberings of finite sets, slice codes, exact measures and lowness sums.

A table numbering lists the finite sets D_0, D_1, ... explicitly.  The
slice code of an oracle at e is the code of its first h(2e)+1 members.

Measures of the induced cylinder unions are computed exactly over dyadic
rationals by inclusion-exclusion, with a term cap guarding the subset
enumeration and a flagged union bound as the fallback.  An independent
mirror counts the covered prefixes of up to 22 coordinates bit-parallel:
all prefixes are the bits of one integer.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from ._value import _set_field, _Value
from .dyadic import WIDTH_LIMIT, ZERO, DyadicRational, dyadic_sum
from .errors import CombinatorialBlowup, InsufficientOracle, WitnessBudgetExceeded
from .machine import ProgramIndex, gamma_inverse, halted_value
from .oracle import BitOracle, first_members


class TableNumbering(_Value):
    """A numbering backed by an explicit table; index beyond it is empty."""

    def __init__(self, sets: tuple[frozenset[int], ...]) -> None:
        _set_field(self, "sets", sets)

    def finite_set(self, e: int) -> frozenset[int]:
        return self.sets[e] if e < len(self.sets) else frozenset()


def snr_from_immune_oracle(R: BitOracle, h: ProgramIndex, e: int, budget: int) -> int:
    """Code of the first h(2e)+1 members of the oracle.

    If R's initial slices avoid every diagonally enumerated set of the
    matching size, the resulting value disagrees with phi_e(e) wherever
    that halts.
    """
    out = halted_value(h, 2 * e, budget)
    if out is None:
        raise WitnessBudgetExceeded(f"h did not converge on {2 * e} within {budget} steps")
    k = out + 1
    members = first_members(R, k)
    if len(members) < k:
        raise InsufficientOracle(f"oracle holds only {len(members)} members, need {k}")
    return gamma_inverse(members)


# ---------------------------------------------------------------------------
# Exact measures of cylinder unions.

# Most inclusion-exclusion terms a measure takes on, whatever cap the caller
# gives: 2^20 - 1 terms (20 random sets over 22 coordinates) take 6.7-6.8 s
# (CPython 3.11, one core of a 2-core Xeon VM).
TERM_LIMIT = 1 << 20


def union_cylinder_measure(sets: Iterable[frozenset[int]],
                           term_cap: int = TERM_LIMIT) -> DyadicRational:
    """mu of the union of {X : S subset X} over the given finite S, exactly.

    Inclusion-exclusion over nonempty subfamilies; the cylinder for a union
    of constraint sets has measure 2^-|union|.  Raises CombinatorialBlowup
    carrying the union bound when the subfamily count exceeds the cap or
    TERM_LIMIT.
    """
    family = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    n = len(family)
    if n == 0:
        return ZERO
    cap = min(term_cap, TERM_LIMIT)
    if (1 << n) - 1 > cap:
        bound = dyadic_sum(DyadicRational.half_power(len(s)) for s in family)
        raise CombinatorialBlowup(
            f"{(1 << n) - 1} inclusion-exclusion terms exceed the cap {cap}",
            upper_bound=bound)
    total = ZERO
    for r in range(1, n + 1):
        sign = 1 if r % 2 == 1 else -1
        for combo in combinations(family, r):
            support = frozenset().union(*combo)
            total = total + DyadicRational(sign, len(support))
    return total


def brute_force_union_measure(sets: Iterable[frozenset[int]]) -> DyadicRational:
    """Independent check: count every covered prefix over the touched coordinates.

    The 2^width prefixes are the bits of one integer.  A member's up-set has
    bit p set exactly when prefix p contains the member; it is built one
    coordinate at a time (a member coordinate shifts the half without it
    onto the half with it, any other coordinate keeps both halves), and the
    covered prefixes are the union of the up-sets.
    """
    family = [s for s in set(sets)]
    if not family:
        return ZERO
    width = max(max(s) for s in family if s) + 1 if any(family) else 0
    if width > 22:
        raise ValueError(f"brute force capped at 22 coordinates, got {width}")
    if any(not s for s in family):
        return DyadicRational(1)
    covered = 0
    for s in family:
        up = 1
        for i in range(width):
            up = up << (1 << i) if i in s else up | (up << (1 << i))
        covered |= up
    return DyadicRational(covered.bit_count(), width)


def tail_constraints(numbering: TableNumbering, c: int, e_max: int) -> list[frozenset[int]]:
    """The level-c test tail: each D_e with c < e <= e_max and |D_e| >= 2e.
    Past the table every D_e is empty, so the scan stops at its end."""
    return [members for e in range(c + 1, min(e_max, len(numbering.sets) - 1) + 1)
            if len(members := frozenset(numbering.finite_set(e))) >= 2 * e]


def schnorr_measure(numbering, c: int, e_max: int) -> DyadicRational:
    """Exact measure of the level-c test tail induced by a numbering.

    Each tail set contributes the cylinder of reals containing it.  The
    filter forces per-term measure 2^-2e, so the union always fits under
    2^-c; that inequality is asserted, not assumed.
    """
    if c < 0 or e_max < c:
        raise ValueError("need 0 <= c <= e_max")
    measure = union_cylinder_measure(tail_constraints(numbering, c, e_max))
    assert not measure.is_negative
    assert measure <= DyadicRational.half_power(c), "tail bound violated"
    return measure


class LownessVerdict(_Value):
    def __init__(self, holds: bool, partial_sum: DyadicRational,
                 first_violation: Optional[int] = None,
                 violating_term: Optional[DyadicRational] = None) -> None:
        _set_field(self, "holds", holds)
        _set_field(self, "partial_sum", partial_sum)
        _set_field(self, "first_violation", first_violation)
        _set_field(self, "violating_term", violating_term)

    def to_jsonable(self) -> dict:
        out = {"holds": self.holds, "partial_sum": self.partial_sum.to_jsonable()}
        if self.first_violation is not None:
            out["first_violation"] = self.first_violation
            out["violating_term"] = self.violating_term.to_jsonable()
        return out


def lowness_bound_check(h: ProgramIndex, p: ProgramIndex, f: ProgramIndex,
                        c: int, e_max: int, budget: int) -> LownessVerdict:
    """Verify h(p(e)) * 2^-(f(e)+1) <= 2^-e termwise over c < e <= e_max.

    The partial sum is accumulated exactly; when every term obeys its bound
    the sum is automatically below 2^-c, and that final comparison is
    checked rather than trusted.  No e past WIDTH_LIMIT is evaluated: the
    bound 2^-e there is wider than any dyadic sum accepts, so the check
    stops with CombinatorialBlowup when it reaches one.
    """
    def value(idx: ProgramIndex, x: int) -> int:
        out = halted_value(idx, x, budget)
        if out is None:
            raise WitnessBudgetExceeded(f"index {idx} did not converge on {x}")
        return out

    total = ZERO
    for e in range(c + 1, min(e_max, WIDTH_LIMIT) + 1):
        term = DyadicRational(value(h, value(p, e)), value(f, e) + 1)
        if term > DyadicRational.half_power(e):
            return LownessVerdict(
                holds=False,
                partial_sum=total + term,
                first_violation=e,
                violating_term=term,
            )
        total = total + term
    if e_max > max(c, WIDTH_LIMIT):
        raise CombinatorialBlowup(
            f"e_max {e_max} is past {WIDTH_LIMIT}: a term bound 2^-e there is wider "
            f"than the {WIDTH_LIMIT}-bit limit of a dyadic sum")
    assert total <= DyadicRational.half_power(c)
    return LownessVerdict(holds=True, partial_sum=total)
