"""Index transforms, DNR candidates, audits, and blocking prefixes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnrlab.asm import (
    DIVERGE_INDEX,
    EVEN_HALT_INDEX,
    IDENTITY_INDEX,
    ZERO_INDEX,
    assemble_index,
    const_index,
)
from dnrlab.certs import replay_certificate
from dnrlab.errors import PreconditionViolated, WitnessBudgetExceeded
from dnrlab.machine import (
    Halted,
    domain_window,
    enumerate_re,
    eval_program,
    gamma,
    re_enumeration_order,
)
from dnrlab.oracle import (
    ALL_ZEROS,
    EVENS,
    ODDS,
    PatchedOracle,
    PeriodicOracle,
    PrefixOracle,
    first_members,
)
from dnrlab.reductions import (
    blocking_prefix,
    diagonal_set_index,
    dnr_candidate,
    dnr_candidate_bound,
    dnr_reduction_audit,
    first_slice_index,
    patch_oracle_dnr_only,
)

BUDGET = 10_000

# W = {0, 2}: shift the set code 5 = 2^0 + 2^2 right x times, halt on a 1 bit
SET_0_2_INDEX = assemble_index("""
    load r1, 5
    load r2, 2
    mov r3, r0
loop:
    jz r3, test
    div r1, r1, r2
    load r4, 1
    sub r3, r3, r4
    jmp loop
test:
    mod r5, r1, r2
    jz r5, stuck
    halt r0
stuck:
""")

# W = {x : x mod 3 = 1}
RESIDUE_1_MOD_3_INDEX = assemble_index("""
    load r1, 3
    mod r2, r0, r1
    load r3, 1
    sub r4, r2, r3
    sub r5, r3, r2
    add r4, r4, r5
    jz r4, ok
    jmp stuck
ok: halt r0
stuck:
""")


class TestFirstMembers:
    def test_evens(self):
        assert first_members(EVENS, 3) == (0, 2, 4)
        assert first_members(EVENS, 3, value=0) == (1, 3, 5)

    def test_thin_side_comes_back_short(self):
        x = PrefixOracle((1, 1), 0)
        assert first_members(x, 2) == (0, 1)
        assert first_members(x, 3) == (0, 1)

    def test_sparse_periodic(self):
        x = PeriodicOracle((0, 0, 0, 1))
        assert first_members(x, 3) == (3, 7, 11)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 1)), max_size=30),
       st.sampled_from([EVENS, ODDS, ALL_ZEROS, PrefixOracle((1, 0, 1), 1)]))
def test_patched_bit_matches_a_walk_over_the_patches(patches, base):
    oracle = PatchedOracle(base, tuple(patches))
    last = dict(patches)  # a later patch of a position overrides an earlier one
    for i in range(50):
        want = next((b for pos, b in oracle.patches if pos == i), base.bit(i))
        assert oracle.bit(i) == want == last.get(i, base.bit(i))


class TestDiagonalSetIndex:
    def test_known_diagonal_value(self):
        # phi_n(n) = 5 codes {0, 2}
        h = diagonal_set_index(const_index(5))
        assert domain_window(h, 6, BUDGET) == frozenset({0, 2})

    def test_diverging_diagonal_enumerates_nothing(self):
        h = diagonal_set_index(DIVERGE_INDEX)
        for s in (0, 10, 1000):
            assert enumerate_re(h, s) == frozenset()

    def test_total_without_running_the_argument(self):
        # building the index must not hang on a diverging diagonal
        assert isinstance(diagonal_set_index(DIVERGE_INDEX), int)

    def test_budgeted_enumeration_grows_to_the_code(self):
        n = const_index(5)
        h = diagonal_set_index(n)
        target = gamma(5)
        small = enumerate_re(h, 6)
        large = enumerate_re(h, 500)
        assert small <= target
        assert large == target

    def test_identity_diagonal(self):
        out = eval_program(IDENTITY_INDEX, IDENTITY_INDEX, BUDGET)
        assert out == Halted(IDENTITY_INDEX)
        h = diagonal_set_index(IDENTITY_INDEX)
        horizon = max(gamma(IDENTITY_INDEX)) + 2
        assert domain_window(h, horizon, BUDGET) == gamma(IDENTITY_INDEX)


class TestDnrCandidate:
    def test_evens_with_zero_bound(self):
        # first slices are {0} and {1}: codes 1 and 2, min 1
        assert dnr_candidate(EVENS, ZERO_INDEX, const_index(7), BUDGET) == 1

    def test_complement_swap_symmetry(self):
        n = const_index(7)
        assert dnr_candidate(EVENS, ZERO_INDEX, n, BUDGET) == \
            dnr_candidate(ODDS, ZERO_INDEX, n, BUDGET)

    def test_thin_side_falls_back_to_the_other(self):
        # the oracle side of ALL_ZEROS is empty; the complement side carries it
        assert dnr_candidate(ALL_ZEROS, ZERO_INDEX, const_index(3), BUDGET) == 1

    def test_budget_exhaustion(self):
        with pytest.raises(WitnessBudgetExceeded):
            dnr_candidate(EVENS, DIVERGE_INDEX, const_index(3), BUDGET)

    def test_bound_values(self):
        assert dnr_candidate_bound(const_index(1), const_index(9), BUDGET) == 15
        assert dnr_candidate_bound(ZERO_INDEX, const_index(9), BUDGET) == 3

    def test_bound_dominates_candidate(self):
        for oracle in (EVENS, ODDS, PeriodicOracle((1, 1, 0))):
            for n in range(0, 51, 10):
                assert dnr_candidate(oracle, ZERO_INDEX, n, BUDGET) <= \
                    dnr_candidate_bound(ZERO_INDEX, n, BUDGET)


class TestAudit:
    def test_evens_has_a_violation(self):
        certs = dnr_reduction_audit(EVENS, ZERO_INDEX, 700, BUDGET)
        assert len(certs) == 701
        kinds = {c["kind"] for c in certs}
        assert "ebi_violation" in kinds
        assert "dnr_value" in kinds
        assert "diagonal_diverges" in kinds

    def test_violation_replays(self):
        certs = dnr_reduction_audit(EVENS, ZERO_INDEX, 700, BUDGET)
        viols = [c for c in certs if c["kind"] == "ebi_violation"]
        assert viols
        for c in viols:
            assert c["members"] == sorted(gamma(c["value"]))
            assert len(c["members"]) == c["f_value"] + 1
            side_bit = 1 if c["side"] == "oracle" else 0
            assert all(EVENS.bit(w) == side_bit for w in c["members"])
            window = domain_window(c["h_e"], c["horizon"], c["budget"])
            assert window == frozenset(c["members"])

    def test_one_certificate_per_index(self):
        certs = dnr_reduction_audit(EVENS, ZERO_INDEX, 120, BUDGET)
        assert [c["e"] for c in certs] == list(range(121))

    def test_dnr_certs_avoid_the_diagonal(self):
        certs = dnr_reduction_audit(EVENS, ZERO_INDEX, 700, BUDGET)
        for c in certs:
            if c["kind"] != "dnr_value":
                continue
            for code in (c["side_code"], c["complement_code"]):
                assert code is None or code != c["value"]
            assert c["candidate"] != c["value"]


class TestPatchedOracleAudit:
    def test_patching_removes_violations(self):
        start = PrefixOracle((1, 1), 0)
        f = const_index(1)
        oracle, certs = patch_oracle_dnr_only(f, 2450, BUDGET, start)
        assert isinstance(oracle, PatchedOracle)
        assert all(c["kind"] != "ebi_violation" for c in certs)
        assert any(c["kind"] == "dnr_value" for c in certs)

    def test_clean_audit_is_the_audit_of_the_patched_oracle(self):
        # the rounds evaluate the diagonals once; a fresh audit re-runs them
        f = const_index(1)
        oracle, certs = patch_oracle_dnr_only(f, 2450, BUDGET, PrefixOracle((1, 1), 0))
        assert isinstance(oracle, PatchedOracle)
        assert certs == dnr_reduction_audit(oracle, f, 2450, BUDGET)

    def test_gives_up_when_every_oracle_violates(self):
        """Below e = 2500 the diagonals take the values 3, 5 and 6, the
        codes of {0, 1}, {0, 2} and {1, 2}.  One side of any oracle holds
        two of the positions 0-2, so every oracle keeps a violation and the
        rounds run out."""
        values = [eval_program(e, e, BUDGET) for e in (2439, 2471, 2487)]
        assert [set(gamma(out.value)) for out in values] == [{0, 1}, {0, 2}, {1, 2}]
        with pytest.raises(RuntimeError, match="no violation-free patch"):
            patch_oracle_dnr_only(const_index(1), 2500, BUDGET, PrefixOracle((1, 1), 0))

    def test_unpatched_start_did_violate(self):
        certs = dnr_reduction_audit(PrefixOracle((1, 1), 0), const_index(1), 2450, BUDGET)
        assert any(c["kind"] == "ebi_violation" for c in certs)


class TestBlockingPrefixFinite:
    # enumeration budgets double as scan horizons, so these stay modest
    def test_covered_set_returns_the_prefix(self):
        e = SET_0_2_INDEX
        sigma, cert = blocking_prefix((1, 0, 1), e, const_index(1), 1_000)
        assert sigma == (1, 0, 1)
        assert cert["kind"] == "blocking_finite"
        assert cert["members"] == [0, 2]
        assert cert["f_value"] == 1

    def test_member_on_a_zero_is_rejected(self):
        e = SET_0_2_INDEX
        with pytest.raises(PreconditionViolated):
            blocking_prefix((1, 1, 0), e, const_index(1), 1_000)

    def test_bound_not_exceeded_is_rejected(self):
        e = SET_0_2_INDEX
        with pytest.raises(PreconditionViolated):
            blocking_prefix((1, 0, 1), e, const_index(5), 1_000)

    def test_f_budget(self):
        e = SET_0_2_INDEX
        with pytest.raises(WitnessBudgetExceeded):
            blocking_prefix((1, 0, 1), e, DIVERGE_INDEX, BUDGET)


class TestBlockingPrefixInfinite:
    def test_even_enumerator_slice(self):
        sigma, cert = blocking_prefix((1,), EVEN_HALT_INDEX, const_index(2), 100_000)
        assert cert["kind"] == "blocking_infinite"
        assert cert["members"] == [0, 2, 4]
        assert sigma == (1, 0, 1, 0, 1)
        assert replay_certificate(cert) == "blocking_infinite"

    def test_slice_is_the_canonical_order_prefix(self):
        _, cert = blocking_prefix((1,), EVEN_HALT_INDEX, const_index(2), 100_000)
        order = re_enumeration_order(EVEN_HALT_INDEX, cert["budget"])
        assert cert["order_prefix"] == list(order[:3])

    def test_sigma_extends_only_with_forced_ones(self):
        prefix = (1, 1, 1)
        sigma, cert = blocking_prefix(prefix, EVEN_HALT_INDEX, const_index(2), 100_000)
        assert sigma[:3] == prefix
        for i in range(3, len(sigma)):
            assert sigma[i] == (1 if i in cert["members"] else 0)

    def test_slice_member_on_a_zero_is_rejected(self):
        with pytest.raises(PreconditionViolated):
            blocking_prefix((1, 0, 0), EVEN_HALT_INDEX, const_index(2), 100_000)


class TestFirstSliceIndex:
    def test_slice_of_a_residue_class(self):
        e = RESIDUE_1_MOD_3_INDEX
        idx = first_slice_index(e, const_index(3))
        want = set(re_enumeration_order(e, 50_000)[:4])
        horizon = max(want) + 2
        assert domain_window(idx, horizon, 200_000) == frozenset(want)

    def test_slice_size_matches_the_claimed_bound(self):
        idx = first_slice_index(EVEN_HALT_INDEX, const_index(2))
        members = domain_window(idx, 10, 200_000)
        assert len(members) == 3
