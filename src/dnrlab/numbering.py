"""Canonical numberings of finite sets, immunity audits, and exact measures.

A canonical numbering is a pair of total toy programs: membership decides
x in D_e from pair(e, x), and cardinality reports |D_e|.  Decoding D_e is
a bounded scan driven by the declared cardinality, so disagreement between
the two programs surfaces as a decoding error rather than a wrong set.

The adversarial numbering interleaves two families: even indices slice a
given 0/1-valued program's support to a prescribed length, odd indices
reproduce the plain bit-sum coding.  It packs large subsets of the target
set into indices whose declared bound they exceed, which is exactly what
the immunity audit then reports.

Measures of the induced cylinder unions are computed exactly over dyadic
rationals by inclusion-exclusion, with a term cap guarding the subset
enumeration and a flagged union bound as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .asm import assemble_index
from .dyadic import ZERO, DyadicRational, dyadic_sum
from .errors import (
    CombinatorialBlowup,
    InsufficientOracle,
    PreconditionViolated,
    WitnessBudgetExceeded,
)
from .machine import Halted, ProgramIndex, eval_program, gamma_inverse, pair
from .oracle import BitOracle, first_members

DEFAULT_SCAN_CAP = 4096


@dataclass(frozen=True)
class CanonicalNumbering:
    """Finite sets presented by total membership and cardinality programs."""

    membership: ProgramIndex
    cardinality: ProgramIndex
    budget: int = 100_000
    scan_cap: int = DEFAULT_SCAN_CAP

    def declared_size(self, e: int) -> int:
        out = eval_program(self.cardinality, e, self.budget)
        if not isinstance(out, Halted):
            raise WitnessBudgetExceeded(f"cardinality did not converge on {e}")
        return out.value

    def member_bit(self, e: int, x: int) -> int:
        out = eval_program(self.membership, pair(e, x), self.budget)
        if not isinstance(out, Halted):
            raise WitnessBudgetExceeded(f"membership did not converge on ({e}, {x})")
        if out.value not in (0, 1):
            raise PreconditionViolated(f"membership({e}, {x}) = {out.value}, not a bit")
        return out.value

    def finite_set(self, e: int) -> frozenset[int]:
        """D_e, scanned up to the declared cardinality."""
        n = self.declared_size(e)
        found = []
        x = 0
        while len(found) < n:
            if x >= self.scan_cap:
                raise InsufficientOracle(
                    f"D_{e} claims {n} members but only {len(found)} lie below {self.scan_cap}")
            if self.member_bit(e, x):
                found.append(x)
            x += 1
        return frozenset(found)

    def audit_agreement(self, sample: Iterable[int]) -> list[dict]:
        """Indices where decoding and the declared cardinality disagree."""
        mismatches = []
        for e in sample:
            try:
                got = len(self.finite_set(e))
            except (InsufficientOracle, WitnessBudgetExceeded) as err:
                mismatches.append({"e": e, "error": str(err)})
                continue
            want = self.declared_size(e)
            if got != want:
                mismatches.append({"e": e, "decoded": got, "declared": want})
        return mismatches

    def to_jsonable(self) -> dict:
        return {
            "membership": self.membership,
            "cardinality": self.cardinality,
            "budget": self.budget,
            "scan_cap": self.scan_cap,
        }


@dataclass(frozen=True)
class TableNumbering:
    """A numbering backed by an explicit table; index beyond it is empty."""

    sets: tuple[frozenset[int], ...]

    def finite_set(self, e: int) -> frozenset[int]:
        return self.sets[e] if e < len(self.sets) else frozenset()

    def declared_size(self, e: int) -> int:
        return len(self.finite_set(e))


# Membership driver for the adversarial numbering: input pair(e, x).
# Even e: x is a member iff R(x) = 1 and the rank of x within R's support
# is at most h(e) + 1.  Odd e: bit x of (e - 1) / 2.
_ADVERSARIAL_MEMBERSHIP = """
    left r1, r0
    right r2, r0
    load r3, 2
    mod r4, r1, r3
    jz r4, even
    load r5, 1
    sub r6, r1, r5
    div r6, r6, r3
oddshift:
    jz r2, oddbit
    div r6, r6, r3
    sub r2, r2, r5
    jmp oddshift
oddbit:
    mod r7, r6, r3
    halt r7
even:
    load r8, {h}
    univ r9, r8, r1
    load r5, 1
    add r9, r9, r5
    load r10, {R}
    univ r11, r10, r2
    jz r11, no
    load r12, 0
    load r13, 0
rankloop:
    univ r14, r10, r12
    jz r14, unranked
    add r13, r13, r5
unranked:
    sub r15, r2, r12
    jz r15, ranked
    add r12, r12, r5
    jmp rankloop
ranked:
    sub r14, r13, r9
    jz r14, yes
no:
    load r7, 0
    halt r7
yes:
    load r7, 1
    halt r7
"""

# Cardinality driver: h(e) + 1 on even e, popcount((e - 1) / 2) on odd e.
_ADVERSARIAL_CARDINALITY = """
    load r3, 2
    mod r4, r0, r3
    jz r4, even
    load r5, 1
    sub r6, r0, r5
    div r6, r6, r3
    load r7, 0
poploop:
    jz r6, counted
    mod r8, r6, r3
    add r7, r7, r8
    div r6, r6, r3
    jmp poploop
counted:
    halt r7
even:
    load r8, {h}
    univ r9, r8, r0
    load r5, 1
    add r9, r9, r5
    halt r9
"""


def adversarial_numbering(R: ProgramIndex, h: ProgramIndex,
                          probe: int = 16, budget: int = 100_000,
                          scan_cap: int = DEFAULT_SCAN_CAP) -> CanonicalNumbering:
    """D_{2n} = first h(2n)+1 support elements of R, D_{2n+1} = the bit-sum set of n.

    R must behave as a total 0/1 function with some support; both facts are
    audited on the probed initial segment, not proved.
    """
    support = 0
    for x in range(probe + 1):
        out = eval_program(R, x, budget)
        if not isinstance(out, Halted):
            raise PreconditionViolated(f"R did not converge on {x} within {budget} steps")
        if out.value not in (0, 1):
            raise PreconditionViolated(f"R({x}) = {out.value}, not a bit")
        support += out.value
    if support == 0:
        raise PreconditionViolated(f"R has empty support below {probe}")
    for e in range(0, 2 * probe + 1, 2):
        if not isinstance(eval_program(h, e, budget), Halted):
            raise PreconditionViolated(f"h did not converge on {e} within {budget} steps")
    return CanonicalNumbering(
        membership=assemble_index(_ADVERSARIAL_MEMBERSHIP.format(h=h, R=R)),
        cardinality=assemble_index(_ADVERSARIAL_CARDINALITY.format(h=h)),
        budget=budget,
        scan_cap=scan_cap,
    )


def snr_from_immune_oracle(R: BitOracle, h: ProgramIndex, e: int, budget: int) -> int:
    """Code of the first h(2e)+1 members of the oracle.

    If R's initial slices avoid every diagonally enumerated set of the
    matching size, the resulting value disagrees with phi_e(e) wherever
    that halts.
    """
    out = eval_program(h, 2 * e, budget)
    if not isinstance(out, Halted):
        raise WitnessBudgetExceeded(f"h did not converge on {2 * e} within {budget} steps")
    k = out.value + 1
    members = first_members(R, k)
    if len(members) < k:
        raise InsufficientOracle(f"oracle holds only {len(members)} members, need {k}")
    return gamma_inverse(members)


def snr_collision_audit(g: ProgramIndex, R: BitOracle, h: ProgramIndex,
                        e_max: int, budget: int) -> list[int]:
    """Indices e <= e_max where phi_g(e) halts exactly on the slice code."""
    collisions = []
    for e in range(e_max + 1):
        out = eval_program(g, e, budget)
        if isinstance(out, Halted) and out.value == snr_from_immune_oracle(R, h, e, budget):
            collisions.append(e)
    return collisions


def canonical_immunity_audit(R: BitOracle, h: ProgramIndex, numbering,
                             e_range: int, budget: int) -> list[dict]:
    """All e <= e_range whose D_e sits inside the oracle yet exceeds h(e)."""
    violations = []
    for e in range(e_range + 1):
        members = numbering.finite_set(e)
        out = eval_program(h, e, budget)
        if not isinstance(out, Halted):
            raise WitnessBudgetExceeded(f"h did not converge on {e} within {budget} steps")
        bound = out.value
        if len(members) > bound and all(R.bit(x) == 1 for x in members):
            violations.append({"e": e, "members": sorted(members), "h_value": bound})
    return violations


# ---------------------------------------------------------------------------
# Exact measures of cylinder unions.

# Most inclusion-exclusion terms a measure takes on, whatever cap the caller
# gives: 2^20 terms (20 sets) take a few seconds.
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
    """Independent check: enumerate every prefix over the touched coordinates."""
    family = [s for s in set(sets)]
    if not family:
        return ZERO
    width = max(max(s) for s in family if s) + 1 if any(family) else 0
    if width > 22:
        raise ValueError(f"brute force capped at 22 coordinates, got {width}")
    if any(not s for s in family):
        return DyadicRational(1)
    hits = 0
    masks = [gamma_inverse(s) for s in family]
    for prefix in range(1 << width):
        if any(prefix & m == m for m in masks):
            hits += 1
    return DyadicRational(hits, width)


def tail_constraints(numbering, c: int, e_max: int) -> list[frozenset[int]]:
    """The level-c test tail: each D_e with c < e <= e_max and |D_e| >= 2e."""
    return [members for e in range(c + 1, e_max + 1)
            if len(members := frozenset(numbering.finite_set(e))) >= 2 * e]


def schnorr_measure(numbering, c: int, e_max: int,
                    term_cap: int = 1 << 20) -> DyadicRational:
    """Exact measure of the level-c test tail induced by a numbering.

    Each tail set contributes the cylinder of reals containing it.  The
    filter forces per-term measure 2^-2e, so the union always fits under
    2^-c; that inequality is asserted, not assumed.
    """
    if c < 0 or e_max < c:
        raise ValueError("need 0 <= c <= e_max")
    measure = union_cylinder_measure(tail_constraints(numbering, c, e_max), term_cap)
    assert not measure.is_negative
    assert measure <= DyadicRational.half_power(c), "tail bound violated"
    return measure


@dataclass(frozen=True)
class LownessVerdict:
    holds: bool
    partial_sum: DyadicRational
    first_violation: Optional[int] = None
    violating_term: Optional[DyadicRational] = None

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
    checked rather than trusted.
    """
    def value(idx: ProgramIndex, x: int) -> int:
        out = eval_program(idx, x, budget)
        if not isinstance(out, Halted):
            raise WitnessBudgetExceeded(f"index {idx} did not converge on {x}")
        return out.value

    total = ZERO
    for e in range(c + 1, e_max + 1):
        term = DyadicRational(value(h, value(p, e)), value(f, e) + 1)
        if term > DyadicRational.half_power(e):
            return LownessVerdict(
                holds=False,
                partial_sum=total + term,
                first_violation=e,
                violating_term=term,
            )
        total = total + term
    assert total <= DyadicRational.half_power(c)
    return LownessVerdict(holds=True, partial_sum=total)
