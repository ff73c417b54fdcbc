"""The stagewise immune-set construction and its audits."""

import pytest

from dnrlab import stages
from dnrlab.asm import ZERO_INDEX, const_index
from dnrlab.certs import replay_certificate
from dnrlab.errors import CombinatorialBlowup
from dnrlab.machine import domain_window
from dnrlab.stages import (
    EVEN_STAGE_WORK_LIMIT,
    StageTrace,
    audit_effective_immunity,
    ei_not_coei,
    interval_slice_index,
)

BUDGET = 100_000


@pytest.fixture(scope="module")
def long_run():
    return ei_not_coei(200, BUDGET)


class TestIntervalSliceIndex:
    def test_zero_function_gives_a_singleton(self):
        a = interval_slice_index(ZERO_INDEX, 5)
        assert domain_window(a, 10, BUDGET) == frozenset({5})

    def test_constant_two_gives_three_elements(self):
        a = interval_slice_index(const_index(2), 7)
        assert domain_window(a, 14, BUDGET) == frozenset({7, 8, 9})

    def test_interval_respects_its_base(self):
        a = interval_slice_index(const_index(1), 3)
        window = domain_window(a, 10, BUDGET)
        assert window == frozenset({3, 4})
        assert min(window) == 3


class TestConstructionBasics:
    def test_stage_one_admits_zero(self, long_run):
        trace, _ = long_run
        assert trace.records[0]["added"] == [[0, 1]]

    def test_bits_are_bits(self, long_run):
        _, g = long_run
        assert set(g.values()) <= {0, 1}

    def test_records_replay_the_function(self, long_run):
        trace, g = long_run
        rebuilt = {}
        for rec in trace.records:
            for x, b in rec["added"]:
                assert x not in rebuilt, "no position is ever rewritten"
                rebuilt[x] = b
        assert rebuilt == g

    def test_even_stages_add_no_ones(self, long_run):
        trace, _ = long_run
        for rec in trace.records:
            if rec["parity"] == "even":
                assert all(b == 0 for _, b in rec["added"])

    def test_ones_invariant_every_stage(self, long_run):
        trace, _ = long_run
        ones = 0
        for rec in trace.records:
            ones += sum(1 for _, b in rec["added"] if b == 1)
            assert ones == rec["ones"]
            assert ones <= 2 * rec["stage"]

    def test_determinism(self):
        first = ei_not_coei(30, 10_000)
        second = ei_not_coei(30, 10_000)
        assert first[0] == second[0]
        assert first[1] == second[1]

    @pytest.mark.parametrize("knob", ["probes", "value_cap"])
    def test_even_stage_work_limit_is_exact(self, knob):
        # stage 2 is the one even stage of three; e = 0 diverges, so it runs nothing
        trace, _ = ei_not_coei(3, 100, **{knob: EVEN_STAGE_WORK_LIMIT})
        assert len(trace.records) == 3
        with pytest.raises(CombinatorialBlowup, match=f"{knob} times 1 even stages"):
            ei_not_coei(3, 100, **{knob: EVEN_STAGE_WORK_LIMIT + 1})
        # odd stages cost neither, so one stage takes any value
        assert len(ei_not_coei(1, 100, **{knob: 10**100})[0].records) == 1


class TestStageEvents:
    def test_full_domain_triggers_the_bound(self, long_run):
        trace, g = long_run
        rec = trace.records[46]  # stage 47 handles e = 23, the identity
        events = {ev["event"]: ev for ev in rec["events"]}
        assert "bound_exceeded" in events
        pinned = events["bound_exceeded"]["pinned_out"]
        assert g[pinned] == 0

    def test_infinite_heuristic_pulls_one_in(self, long_run):
        trace, g = long_run
        rec = trace.records[46]
        events = {ev["event"]: ev for ev in rec["events"]}
        assert "looks_infinite" in events
        pulled = events["looks_infinite"]["pulled_in"]
        assert g[pulled] == 1

    def test_huge_diagonal_values_are_skipped(self, long_run):
        trace, _ = long_run
        skips = [ev for rec in trace.records for ev in rec["events"]
                 if ev["event"] == "skipped_value_cap"]
        assert skips
        assert any(ev["e"] == 23 for ev in skips)

    def test_an_interval_is_manufactured(self, long_run):
        trace, _ = long_run
        records = trace.interval_records()
        assert records
        assert any(r["e"] == ZERO_INDEX for r in records)

    def test_a_window_with_no_fresh_member_is_recorded(self, monkeypatch):
        # stage 1 pins 1 out and pulls 2 in, stage 3 puts 3 in: a window of
        # W_1 holding 0..3 exceeds the bound 3 with every member taken
        windows = {0: frozenset(range(8)), 1: frozenset(range(4))}
        monkeypatch.setattr(stages, "domain_window",
                            lambda e, horizon, budget: windows.get(e, frozenset()))
        trace, g = ei_not_coei(3, BUDGET)
        assert g == {0: 1, 1: 0, 2: 1, 3: 1}
        assert trace.records[2]["events"] == [
            {"event": "bound_exceeded_no_fresh", "e": 1, "count": 4}]

    def test_a_diagonal_past_the_budget_is_skipped(self, monkeypatch):
        # phi_0 halts on the three probes only, not on the manufactured index
        monkeypatch.setattr(stages, "halted_value",
                            lambda e, x, budget: 0 if x < 3 else None)
        trace, g = ei_not_coei(2, BUDGET)
        assert g == {0: 1}
        assert trace.records[1]["events"] == [
            {"event": "skipped_diagonal_budget", "e": 0, "a": interval_slice_index(0, 1)}]

    def test_without_probes_a_dead_program_skips_its_diagonal(self):
        # no probe stops phi_0, which halts nowhere, so the index is tried
        trace, _ = ei_not_coei(2, BUDGET, probes=0)
        assert trace.records[1]["events"] == [
            {"event": "skipped_diagonal_budget", "e": 0, "a": interval_slice_index(0, 1)}]


class TestIntervalRecords:
    def test_size_is_the_claimed_bound_plus_one(self, long_run):
        trace, _ = long_run
        for r in trace.interval_records():
            assert r["count"] == r["claimed_bound"] + 1

    def test_all_pinned_to_zero(self, long_run):
        trace, g = long_run
        for r in trace.interval_records():
            for x in range(r["base"], r["base"] + r["count"]):
                assert g[x] == 0

    def test_replay(self, long_run):
        trace, _ = long_run
        for r in trace.interval_records():
            assert replay_certificate({"kind": "interval_slice", **r}) == "interval_slice"


class TestAudit:
    def test_constructed_set_is_clean(self, long_run):
        _, g = long_run
        assert audit_effective_immunity(g, 99, BUDGET) == []

    def test_naive_initial_segment_is_not(self):
        g = {x: 1 for x in range(120)}
        violations = audit_effective_immunity(g, 30, BUDGET)
        assert any(v["e"] == 23 for v in violations)


class TestStageTrace:
    def test_record_count_must_match(self):
        with pytest.raises(ValueError):
            StageTrace(2, 10, ({"stage": 1},))

    def test_records_must_be_ordered(self):
        with pytest.raises(ValueError):
            StageTrace(2, 10, ({"stage": 2}, {"stage": 1}))

    def test_ones_added_listing(self, long_run):
        trace, g = long_run
        ones_added = {x for rec in trace.records for x, b in rec["added"] if b == 1}
        assert ones_added == {x for x, b in g.items() if b == 1}
