"""Tests of the benchmark's own logic (no server, no simulation run).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import svc  # noqa: E402
from reference import (  # noqa: E402
    REF_NS,
    REF_REPEAT,
    Reference,
    _Cell,
    reference_work,
    rescale_factor,
)
from sim import BatchTimer, ReferenceTicker, _timed, layer_of  # noqa: E402
from workload import (  # noqa: E402
    SIZE_CLASSES,
    Tenant,
    ZipfKeys,
    group_means,
    key_name,
    ledger_mismatches,
    median,
    percentile,
    rank_sizes,
    self_times,
    value_bytes,
)


def _ops(seed, n=300):
    tenant = Tenant("large", 6000, seed)
    out = []
    for _ in range(n):
        key = key_name(tenant.keys.next())
        out.append((key, tenant.size(key), tenant.next_value(key)))
    return out


# -- generator ---------------------------------------------------------

def test_same_seed_same_ops_sizes_and_values():
    assert _ops(7) == _ops(7)


def test_different_seeds_differ():
    first, second = _ops(7), _ops(8)
    assert [op[0] for op in first] != [op[0] for op in second]
    assert [op[1] for op in first] != [op[1] for op in second]
    assert [op[2] for op in first] != [op[2] for op in second]


def test_sizes_follow_the_mix_and_keep_their_rank_across_seeds():
    sizes = rank_sizes("t", 5000)
    small = sum(1 for s in sizes if s < 4096) / len(sizes)
    large = sum(1 for s in sizes if s >= 32768) / len(sizes)
    assert 0.77 < small < 0.83
    assert 0.02 < large < 0.045
    assert min(sizes) >= SIZE_CLASSES[0][1]
    assert max(sizes) < SIZE_CLASSES[-1][2]
    one, two = Tenant("t", 50, 1), Tenant("t", 50, 2)
    for tenant in (one, two):
        assert [tenant.size(key_name(i)) for i in tenant.keys.ranked] == \
            rank_sizes("t", 50)


def test_value_depends_on_version_and_has_its_size():
    one = value_bytes(1, "t", "k00001", 1, 5000)
    assert len(one) == 5000
    assert one != value_bytes(1, "t", "k00001", 2, 5000)
    assert one != value_bytes(1, "u", "k00001", 1, 5000)


def test_zipf_keys_are_skewed_and_in_range():
    keys = ZipfKeys(5, "t", 800)
    drawn = [keys.next() for _ in range(20000)]
    assert all(0 <= k < 800 for k in drawn)
    top = max(set(drawn), key=drawn.count)
    assert drawn.count(top) > 20000 / 800 * 20


# -- correctness checks --------------------------------------------------

def test_hit_check_accepts_last_stored_and_rejects_tampering():
    tenant = Tenant("small", 10, 1)
    key = key_name(3)
    first = tenant.next_value(key)
    tenant.record_set(key, first, stored=True)
    second = tenant.next_value(key)
    assert second != first
    tenant.record_set(key, second, stored=True)
    assert tenant.check_hit(key, second)
    assert not tenant.check_hit(key, first)  # stale version
    tampered = bytes([second[0] ^ 1]) + second[1:]
    assert not tenant.check_hit(key, tampered)
    assert not tenant.check_hit(key_name(4), second)  # never stored


def test_not_stored_set_keeps_the_previous_value():
    tenant = Tenant("small", 10, 1)
    key = key_name(1)
    first = tenant.next_value(key)
    tenant.record_set(key, first, stored=True)
    tenant.record_set(key, tenant.next_value(key), stored=False)
    assert tenant.check_hit(key, first)
    assert tenant.ledger() == {"gets": 0, "get_hits": 0, "puts": 2,
                               "puts_stored": 1}


def test_ledger_check_passes_on_equal_and_fails_on_tampered():
    client = {"a": {"gets": 5, "get_hits": 4, "puts": 1, "puts_stored": 1}}
    server = {"a:gets": 5, "a:get_hits": 4, "a:puts": 1,
              "a:puts_stored": 1, "a:evictions": 0}
    assert ledger_mismatches(client, server) == []
    server["a:get_hits"] = 3
    assert ledger_mismatches(client, server) == [
        "a:get_hits server=3 client=4"]
    del server["a:puts"]
    assert len(ledger_mismatches(client, server)) == 2


def _fake_sim_child(monkeypatch, fingerprint, scale=1.0):
    result = {"wall_s": 2.0, "fingerprint": fingerprint, "rss_mb": 50.0,
              "gets": 10, "puts": 5, "get_groups": 1, "put_groups": 1,
              "get_p50_ns": 1000,
              "get_p99_ns": 2000, "put_p50_ns": 3000, "put_p99_ns": 4000,
              "keys": 20, "hits": 15, "setup_s": 0.3,
              "scale": scale}
    monkeypatch.setattr(run, "_run_sim_children",
                        lambda *arg_lists: [result] * len(arg_lists))


def test_sim_fingerprint_check_passes_on_golden(monkeypatch):
    _fake_sim_child(monkeypatch, run.SIM_GOLDEN)
    metrics, attempted, failed, report = run.run_sim(1, 10, 0, None)
    assert (attempted, failed) == (2, 0)
    assert metrics["ops_per_s"] == 7.5
    assert metrics["hit_ratio"] == 0.75
    assert metrics["set_p99_us"] == 4.0


def test_sim_timings_are_rescaled_to_the_reference_speed(monkeypatch):
    # The reference slices ran twice as slow as REF_NS: the core was
    # slow, so every timing is halved.
    _fake_sim_child(monkeypatch, run.SIM_GOLDEN,
                    rescale_factor([2 * REF_NS, 2 * REF_NS]))
    metrics, _, failed, _ = run.run_sim(1, 10, 0, None)
    assert failed == 0
    assert metrics["wall_s"] == 1.0
    assert metrics["ops_per_s"] == 15.0
    assert metrics["set_p99_us"] == 2.0
    assert metrics["setup_s"] == 0.15
    assert metrics["hit_ratio"] == 0.75


def test_reference_work_is_fixed():
    def once():
        return reference_work([_Cell() for _ in range(256)], {}, 500)
    assert once() == once()


def test_reference_slices_run_on_each_core_and_unpin():
    cores = os.sched_getaffinity(0)
    slices = Reference().time_each_core()
    assert len(slices) == REF_REPEAT * len(cores) and min(slices) > 0
    assert os.sched_getaffinity(0) == cores
    assert rescale_factor([REF_NS // 2] * 4) == 2.0


def test_rescaling_without_slices_fails_clearly():
    with pytest.raises(RuntimeError, match="no reference slices"):
        rescale_factor([])


def test_reference_ticker_times_slices_on_a_wall_clock_cadence():
    with ReferenceTicker() as ticker:
        deadline = time.monotonic() + 0.3
        while time.monotonic() < deadline:
            pass
    assert len(ticker.ref_ns) >= 3 and min(ticker.ref_ns) > 0
    count = len(ticker.ref_ns)
    time.sleep(0.1)
    assert len(ticker.ref_ns) == count  # the timer is off again


def _fake_launch(reference_ns):
    measured = svc.Phase(get_ns=[1000] * 99 + [5000], set_ns=[3000] * 10,
                         hits=100, windows=[(0, 10**9)], window_ops=[110])
    setup = svc.Phase(set_ns=[2000] * 100)
    return SimpleNamespace(measured=measured, setup=setup, setup_s=0.5,
                           untimed_s=2.0, rss_mb=40.0,
                           reference_ns=reference_ns)


def test_service_timings_are_rescaled_per_launch():
    spec = svc.SPECS["svc_churn"]
    plain, _ = run.service_e2e([_fake_launch([REF_NS])] * 3, spec)
    assert plain["ops_per_s"] == 110.0
    assert plain["get_p50_us"] == 1.0 and plain["get_p99_us"] == 1.0
    assert plain["set_p50_us"] == 3.0 and plain["hit_ratio"] == 1.0
    assert plain["wall_s"] == 3 * 1.0 + 3 * 2.0
    # Two of three launches met a core running at half speed.
    lives = [_fake_launch([2 * REF_NS])] * 2 + [_fake_launch([REF_NS])]
    slow, _ = run.service_e2e(lives, spec)
    assert slow["ops_per_s"] == 220.0
    assert slow["get_p50_us"] == 0.5 and slow["set_p99_us"] == 1.5
    assert slow["setup_s"] == 0.25
    # Timed slices last --seconds on any core; only the rest is rescaled.
    assert slow["wall_s"] == 3 * 1.0 + 2 * 1.0 + 2.0
    hot, _ = run.service_e2e(lives, svc.SPECS["svc_hot_read"])
    assert hot["set_p50_us"] == 1.0  # the preload's sets


def test_sim_fingerprint_check_fails_on_tampered(monkeypatch):
    tampered = hashlib.sha256(b"drifted").hexdigest()
    _fake_sim_child(monkeypatch, tampered)
    _, _, failed, report = run.run_sim(1, 10, 0, None)
    assert failed == 2
    assert any(tampered in line for line in report)


def test_golden_matches_the_committed_record():
    path = os.path.join(ROOT, "BENCH_core.json")
    if not os.path.exists(path):
        pytest.skip("BENCH_core.json not in this tree")
    with open(path) as handle:
        record = json.load(handle)["perf_smoke"]
    assert (record["experiment"], record["scale"], record["seed"]) == (
        "caching_modes", 0.02, 42)
    assert record["fingerprint_sha256"] == run.SIM_GOLDEN


# -- arithmetic ----------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(samples, 0.50) == 50
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 1.0) == 100
    assert percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_median_matches_statistics():
    for values in ([3.0], [1.0, 4.0], [5.0, 1.0, 3.0, 2.0]):
        assert median(values) == statistics.median(values)


def test_group_means_average_consecutive_samples():
    assert group_means([1, 3, 5, 7, 100], 2) == [2.0, 6.0]
    assert group_means([4, 8], 8) == []


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cache.set", 0, 100, -1, 1),
        ("engine", 10, 30, 0, 1),
        ("pool", 12, 20, 1, 1),
        ("store", 40, 90, 0, 1),
        ("cache.get", 200, 210, -1, 2),
    ]
    assert self_times(spans) == [30, 12, 8, 50, 10]


def test_sim_layers_fold_by_package(tmp_path):
    src = os.path.join(ROOT, "src", "repro")
    assert layer_of(os.path.join(src, "guest", "vm.py")) == "guest"
    assert layer_of(os.path.join(src, "core", "pools.py")) == "core.pools"
    assert layer_of(os.path.join(src, "core", "radix.py")) == "core.other"
    assert layer_of(os.path.join(src, "obs", "tracer.py")) == "repro.other"
    assert layer_of(os.path.join(src, "context.py")) == "repro.other"
    assert layer_of("/usr/lib/python3.11/heapq.py") == "other"


def test_timed_generator_behaves_like_yield_from():
    def inner(n):
        total = 0
        for i in range(n):
            total += yield i
        return total

    def outer(n, sink):
        result = yield from _timed(inner(n), sink)
        return result

    sink = []
    gen = outer(3, sink)
    assert next(gen) == 0
    assert gen.send(10) == 1
    assert gen.send(20) == 2
    with pytest.raises(StopIteration) as stop:
        gen.send(30)
    assert stop.value.value == 60
    assert len(sink) == 1 and sink[0] > 0

    def catcher():
        try:
            yield 1
        except KeyError:
            return "caught"

    gen = _timed(catcher(), [])
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "caught"


def test_batch_timer_counts_hits():
    timer = BatchTimer()

    def get_many(cache, vm_id, pool_id, keys):
        yield "io"
        return set(keys[:1])

    wrapped = timer._wrap(get_many, timer.get_ns, True)
    gen = wrapped(None, 1, 2, ["a", "b"])
    next(gen)
    with pytest.raises(StopIteration):
        gen.send(None)
    assert (timer.keys, timer.hits, len(timer.get_ns)) == (2, 1, 1)


# -- result format and refusal ----------------------------------------------

def test_result_line_has_exactly_the_contract_keys():
    metrics = dict.fromkeys(run.END_TO_END, 1.5)
    line = json.loads(run.result_line(True, 3, 0, metrics, run.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name)) as src:
                (bench / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svc_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
