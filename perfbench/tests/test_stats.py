"""Percentiles, name rules, failure accounting and host scaling."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import harness
import plans
from spans import Tracer
from stats import (REFERENCE_MOPS, SERVED_NOMINAL_S, InsufficientSamples,
                   failed_fraction, host_scale, min_samples, op_failed,
                   percentile, reference_sample, samples_beyond,
                   served_scale, validate_name)

CONTRACT = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))      # 1..1000, shuffled order is fine
    assert percentile(samples[::-1], 0.99) == 990
    assert percentile(list(range(1, 21)), 0.5) == 10


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples(0.5) == 20
    assert min_samples(0.99) == 1000
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 0.99)
    with pytest.raises(InsufficientSamples):
        percentile(list(range(19)), 0.5)


def test_every_op_type_has_enough_samples_for_its_percentile():
    """The minimum fabric phase yields enough samples of each op type."""
    blocks = [plans.fabric_block(1, block, plans.fabric_inputs(1))
              for block in range(harness.MIN_ROUNDS)]
    counts = {}
    for ops in blocks:
        for kind, _ in ops:
            counts[kind] = counts.get(kind, 0) + 1
    # serve.hit_ms_p99 over the untraced half of a traced run, then the p50
    # of miss_s and cli_ms; serve.hit_ms_p90 is taken per round
    assert counts["hit"] // 2 >= min_samples(0.99)
    assert plans.HITS_PER_BLOCK >= min_samples(0.9)
    for kind in ("miss", "cli"):
        assert counts[kind] >= min_samples(0.5)


def _finished_run(traced, failing=()):
    """A stub run of MIN_ROUNDS fabric blocks; ops in ``failing`` failed."""
    bench = _bench_stub()
    bench.workload, bench.traced = "fabric", traced
    inputs = plans.fabric_inputs(1)
    for block in range(harness.MIN_ROUNDS):
        for kind, _ in plans.fabric_block(1, block, inputs):
            record = bench._record(kind, "fabric", block,
                                   traced and block % 2 == 1)
            record.seconds = 0.001
            record.failed = (kind, block) in failing
    return bench


def test_a_complete_run_is_not_short_of_samples():
    assert _finished_run(traced=False).sample_shortfall() == []
    assert _finished_run(traced=True).sample_shortfall() == []


def test_failed_ops_leave_a_run_short_of_samples():
    # one untraced block of failed hits drops the p99 below its 1000 samples
    assert _finished_run(True, {("hit", 0)}).sample_shortfall() == ["hit"]
    # failed misses in one block leave 18 for a p50 that needs 20
    assert _finished_run(False, {("miss", 3)}).sample_shortfall() == ["miss"]


@pytest.mark.parametrize("name", ["sim_paper", "hit_ms_p50", "store.key_us",
                                  "sim.events_per_instr", "a", "9-x"])
def test_valid_names(name):
    assert validate_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "ms/op", "x" * 65,
                                  "naïve", None])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        validate_name(name)


def test_contract_names_are_valid_and_unique():
    contract = json.loads(CONTRACT.read_text())
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in contract[section]]
    for name in names:
        validate_name(name)
    assert len(names) == len(set(names))
    for entry in contract["workloads"]:
        if entry["name"] != "fabric":
            assert plans.sim_grid(entry["name"])


@pytest.mark.parametrize("code,expected", [
    (200, False), (202, False), (404, False),
    (429, True), (500, True), (503, True), (599, True)])
def test_http_status_failures(code, expected):
    assert op_failed(code) is expected


def test_raised_and_timed_out_ops_fail():
    assert op_failed(200, error=RuntimeError("boom"))
    assert op_failed(None, timed_out=True)
    assert not op_failed(None)


def test_failed_fraction():
    assert failed_fraction(0, 10) == 0.0
    assert failed_fraction(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_fraction(0, 0)


def _bench_stub():
    bench = harness.Benchmark.__new__(harness.Benchmark)
    bench.tracer = Tracer()
    bench.run = harness.Run("fabric")
    bench._last_sample = 0.0
    bench.reference = SimpleNamespace(round_trip=lambda: SERVED_NOMINAL_S)
    return bench


@pytest.mark.parametrize("code,exception,failed", [
    (200, None, False),
    (429, None, True),
    (500, None, True),
    (None, TimeoutError("late"), True),
    (202, RuntimeError("expected 202"), True),
])
def test_timed_op_accounting(code, exception, failed):
    bench = _bench_stub()
    record = bench._record("miss", "fabric", 0, False)

    def action():
        record.code = code
        if exception is not None:
            raise exception

    bench._timed(record, action)
    assert record.failed is failed
    assert bench.run.rejected == (1 if code == 429 else 0)
    failures, attempted, frac = harness.failed_share(bench.run)
    assert (failures, attempted, frac) == (int(failed), 1, float(failed))


@pytest.mark.parametrize("code,body,failed", [
    (200, "expected", False), (200, "different", True), (404, "expected", True)])
def test_output_checks_count_failed_ops(code, body, failed):
    bench = _bench_stub()
    bench.fabric = SimpleNamespace(
        references={"key": "expected"},
        store=SimpleNamespace(key_for=lambda scenario: "key"))
    record = bench._record("hit", "fabric", 0, False)
    record.code, record.body = code, body
    bench._check("hit", None, record)
    assert record.failed is failed
    assert harness.failed_share(bench.run)[0] == int(failed)


def test_host_scale_is_the_median_rate_over_the_nominal_one():
    assert host_scale([REFERENCE_MOPS]) == 1.0
    assert host_scale([5.0, 2 * REFERENCE_MOPS, 100.0]) == 2.0
    with pytest.raises(ValueError):
        host_scale([])
    assert reference_sample(1000) > 0.0


def test_served_scale_is_the_nominal_round_trip_over_the_median_one():
    assert served_scale([SERVED_NOMINAL_S]) == 1.0
    assert served_scale([0.1, 2 * SERVED_NOMINAL_S, 1e-6]) == 0.5
    with pytest.raises(ValueError):
        served_scale([])


def test_host_scaled_uses_each_rounds_own_samples_and_kind():
    run = harness.Run("fabric")
    run.host_rates = {0: [REFERENCE_MOPS, 3 * REFERENCE_MOPS,
                          2 * REFERENCE_MOPS],
                      1: [REFERENCE_MOPS / 2]}
    run.served_times = {0: [SERVED_NOMINAL_S / 4], 1: [SERVED_NOMINAL_S]}
    run.ops = [harness.OpRecord(1, "miss", "fabric", 0, False, seconds=1.0),
               harness.OpRecord(2, "cli", "fabric", 1, False, seconds=1.0),
               harness.OpRecord(3, "hit", "fabric", 0, False, seconds=1.0),
               harness.OpRecord(4, "compare", "fabric", 1, False,
                                seconds=1.0)]
    assert ([op.seconds for op in harness.host_scaled(run)]
            == [2.0, 0.5, 4.0, 1.0])
    assert [op.seconds for op in run.ops] == [1.0] * 4


def test_the_served_reference_answers_and_stops():
    reference = harness.ServedReference()
    try:
        assert reference.round_trip() > 0.0
    finally:
        reference.close()
    assert not reference.thread.is_alive()


def test_a_uniformly_slower_host_gives_the_same_scaled_metrics():
    """Every op twice as slow, the reference loop too: nothing moves."""
    runs = []
    for slowdown in (1.0, 2.0):
        run = _finished_run(traced=False).run
        for index, op in enumerate(run.ops):
            op.seconds = slowdown * (0.001 + 1e-6 * (index % 37))
            op.committed = 1500 if op.kind == "miss" else 0
        rate = REFERENCE_MOPS / slowdown
        run.host_rates = {op.block: [rate] for op in run.ops}
        run.served_times = {op.block: [SERVED_NOMINAL_S * slowdown]
                            for op in run.ops}
        runs.append(harness.end_to_end_metrics(
            "fabric", harness.host_scaled(run),
            [0.5 * slowdown * host_scale([rate])], 50.0))
    for name, (value, unit, count) in runs[0].items():
        assert runs[1][name] == pytest.approx((value, unit, count)), name
