"""The repository's benchmark: one workload per run, correctness-checked.

    python3 perfbench/run.py --workload svc_hot_read --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/BENCHMARK.md for why each was chosen):

* ``svc_hot_read`` and ``svc_churn`` drive a ``python -m repro.service``
  process over TCP with a closed loop of two connections, one per
  tenant;
* ``sim_caching_modes`` runs the simulator's ``perf_smoke``
  configuration (``caching_modes``, scale 0.02, seed 42) and checks its
  summary against the committed fingerprint.

Latencies, rates, set-up times and wall times are rescaled to the speed
of the reference box's cores (see reference.py).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` makes a
traced run and prints every per-layer metric (a layer the workload does
not run reports 0) and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The lines before it give the machine and a readable
report.  Scratch files live under ``.bench_build/perfbench`` in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import svc  # noqa: E402
from reference import rescale_factor  # noqa: E402
from sim import BATCH_GROUP, SIM_LAYERS  # noqa: E402
from workload import median, percentile, self_times  # noqa: E402

#: SHA-256 of the ``perf_smoke`` summary (caching_modes, scale 0.02,
#: seed 42), as committed in BENCH_core.json.
SIM_GOLDEN = "04eaa8fd55acb4990ebfc252bf7fec61ff508375b553eaad777570a74fa99a6d"
SIM_SETUPS = 11
SIM_TIMEOUT_S = 170.0

END_TO_END = {
    "ops_per_s": "1/s", "get_p50_us": "us", "get_p99_us": "us",
    "set_p50_us": "us", "set_p99_us": "us", "hit_ratio": "ratio",
    "setup_s": "s", "rss_mb": "MB", "wall_s": "s",
}

SERVICE_LAYERS = {
    "frontend.self_us_per_op": "us", "transport.gap_us_per_op": "us",
    "cache.get.self_us": "us", "cache.set.self_us": "us",
    "cache.hit_ratio.small": "ratio", "cache.hit_ratio.large": "ratio",
    "cache.evictions_per_set": "count", "cache.not_stored": "count",
    "engine.select_eviction.calls": "count",
    "engine.select_eviction.us": "us",
    "engine.pool_ops_per_set": "count", "engine.pool.us_per_set": "us",
    "store.get.us": "us", "store.set.us": "us", "store.delete.us": "us",
    "store.sql_per_get": "count", "store.sql_per_set": "count",
    "store.commits_per_set": "count", "store.fsyncs_per_set": "count",
    "store.files_opened_per_op": "count",
}
SIM_LAYER_METRICS = dict(
    {f"sim.{layer}.self_s": "s" for layer in SIM_LAYERS},
    **{"sim.events": "count", "sim.host_us_per_event": "us"})
PER_LAYER = dict(SERVICE_LAYERS, **SIM_LAYER_METRICS,
                 **{"trace.overhead_pct": "%"})

WORKLOADS = ("svc_hot_read", "svc_churn", "sim_caching_modes")


# -- machine -----------------------------------------------------------

def git_rev(root: str) -> str:
    """HEAD's commit id read from ``.git`` (no git process), or unknown."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_line(store_fs: str) -> str:
    """The ``machine:`` record printed with every result."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    record = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
              "python": platform.python_version(), "git_rev": git_rev(ROOT),
              "store_fs": store_fs}
    return "machine: " + json.dumps(record)


# -- service -----------------------------------------------------------

def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def service_e2e(lives, spec) -> Tuple[Dict[str, float], Dict[str, int]]:
    """End-to-end metrics (and sample counts) over the launches.

    A launch's timings are rescaled to the reference speed by the
    reference slices timed on each core between its timed slices (see
    reference.py).  A latency percentile is taken in each launch, and the
    run reports the median over launches, so one launch that met a slow
    spell of the box does not set the run's figure.
    """
    factors = [rescale_factor(life.reference_ns) for life in lives]
    phase = svc.Phase()
    for life in lives:
        phase.extend(life.measured)

    def gets(life):
        return life.measured.get_ns

    def sets(life):
        # svc_hot_read times no sets; its set latencies are the preload's.
        return (life.measured if spec.mode == "churn" else life.setup).set_ns

    def over_launches(samples, q):
        return median(percentile(samples(life), q) * factor
                      for life, factor in zip(lives, factors)) / 1e3

    return {
        "ops_per_s": median(rate / factor
                            for life, factor in zip(lives, factors)
                            for rate in life.measured.slice_rates()),
        "get_p50_us": over_launches(gets, 0.50),
        "get_p99_us": over_launches(gets, 0.99),
        "set_p50_us": over_launches(sets, 0.50),
        "set_p99_us": over_launches(sets, 0.99),
        "hit_ratio": phase.hits / len(phase.get_ns),
        "setup_s": median(life.setup_s * factor
                          for life, factor in zip(lives, factors)),
        "rss_mb": max(life.rss_mb for life in lives),
        # The timed slices last the run's --seconds; the rest of each
        # server's life is program work, rescaled like set-up.
        "wall_s": phase.seconds + sum(life.untimed_s * factor
                                      for life, factor in zip(lives, factors)),
    }, {"get": len(phase.get_ns),
        "set": sum(len(sets(life)) for life in lives)}


def service_layers(data, life) -> Dict[str, float]:
    """Per-layer metrics from a traced launch's spans and counts."""
    spans = data["spans"]
    slots = {name: i for i, name in enumerate(data["count_names"])}
    counts = {int(k): v for k, v in data["counts"].items()}
    zero = [0] * len(slots)
    selfs = self_times(spans)
    phase = life.measured
    top = {}
    for index, span in enumerate(spans):
        if span[3] == -1 and any(start <= span[1] <= end
                                 for start, end in phase.windows):
            top[span[4]] = index
    by_name = defaultdict(list)
    in_sets = defaultdict(list)
    for index, span in enumerate(spans):
        root = top.get(span[4])
        if root is None:
            continue
        by_name[span[0]].append(index)
        if spans[root][0] == "ServiceCache.set":
            in_sets[span[0]].append(index)

    def dur_us(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices) / 1e3

    def mean_us(name, values=None):
        indices = by_name[name]
        values = values if values is not None else [
            spans[i][2] - spans[i][1] for i in indices]
        return _mean(sum(values) / 1e3, len(indices))

    def per_call(name, slot):
        indices = by_name[name]
        return _mean(sum(counts.get(i, zero)[slots[slot]]
                         for i in indices), len(indices))

    gets = by_name["ServiceCache.get"]
    sets = by_name["ServiceCache.set"]
    ops = phase.ops
    server_us = life.cpu_s * 1e6 / ops
    cache_top_us = dur_us(top.values())
    client_us = (sum(phase.get_ns) + sum(phase.set_ns)) / 1e3 / ops
    tenants = [t.name for t in life.tenants]

    def tenant_ratio(name):
        mine = [i for i in gets if spans[i][5] == name]
        return _mean(sum(1 for i in mine if spans[i][6]), len(mine))

    pool_in_sets = [i for name in ("Pool.insert", "Pool.pop_oldest",
                                   "Pool.remove_inode")
                    for i in in_sets[name]]
    store_ops = by_name["DiskStore.get"] + by_name["DiskStore.set"]
    return {
        "frontend.self_us_per_op": server_us - cache_top_us / ops,
        "transport.gap_us_per_op": client_us - server_us,
        "cache.get.self_us": mean_us("ServiceCache.get",
                                     [selfs[i] for i in gets]),
        "cache.set.self_us": mean_us("ServiceCache.set",
                                     [selfs[i] for i in sets]),
        "cache.hit_ratio.small": tenant_ratio(tenants[0]),
        "cache.hit_ratio.large": tenant_ratio(tenants[1]),
        "cache.evictions_per_set": _mean(
            sum(1 for i in in_sets["Pool.pop_oldest"] if spans[i][6]),
            len(sets)),
        "cache.not_stored": sum(1 for i in sets if spans[i][6] != "stored"),
        "engine.select_eviction.calls":
            len(by_name["PolicyEngine.select_eviction"]),
        "engine.select_eviction.us": mean_us("PolicyEngine.select_eviction"),
        "engine.pool_ops_per_set": _mean(len(pool_in_sets), len(sets)),
        "engine.pool.us_per_set": _mean(dur_us(pool_in_sets), len(sets)),
        "store.get.us": mean_us("DiskStore.get"),
        "store.set.us": mean_us("DiskStore.set"),
        "store.delete.us": mean_us("DiskStore.delete_entry"),
        "store.sql_per_get": per_call("DiskStore.get", "sql"),
        "store.sql_per_set": per_call("DiskStore.set", "sql"),
        "store.commits_per_set": per_call("DiskStore.set", "commits"),
        "store.fsyncs_per_set": per_call("DiskStore.set", "fsyncs"),
        "store.files_opened_per_op": _mean(
            sum(counts.get(i, zero)[slots["opens"]] for i in store_ops),
            len(store_ops)),
    }


def run_service(name, seed, seconds, trace, workdir):
    spec = svc.SPECS[name]
    if not trace:
        lives = svc.run_plain(spec, seed, workdir, seconds)
        metrics, samples = service_e2e(lives, spec)
        report = [f"samples: get {samples['get']}, set {samples['set']}"]
    else:
        spans_path = os.path.join(workdir, "spans.json")
        lives = svc.run_traced(spec, seed, workdir, seconds, spans_path)
        plain, traced = lives
        with open(spans_path) as handle:
            data = json.load(handle)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(service_layers(data, traced))
        plain_rate = plain.measured.ops / plain.measured.seconds
        traced_rate = traced.measured.ops / traced.measured.seconds
        metrics["trace.overhead_pct"] = (plain_rate / traced_rate - 1) * 100
        report = [f"ops/s untraced {plain_rate:.1f}, traced {traced_rate:.1f}"
                  f" (alternating slices)", f"spans {len(data['spans'])}"]
    failures = [msg for life in lives for msg in life.failures]
    report += [f"ledger mismatch: {msg}" for msg in failures]
    report.insert(0, machine_line(lives[0].server.store_fs))
    attempted = sum(life.attempted for life in lives)
    failed = sum(life.failed for life in lives)
    return metrics, attempted, failed, report


# -- simulator ---------------------------------------------------------

def _run_sim_children(*arg_lists) -> List[dict]:
    """Run ``sim.py`` children side by side; their JSON results in order."""
    deadline = time.monotonic() + SIM_TIMEOUT_S
    children = [subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sim.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE) for args in arg_lists]
    try:
        results = []
        for child in children:
            out, _ = child.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
            if child.returncode != 0:
                raise RuntimeError(f"sim.py exited with {child.returncode}")
            results.append(json.loads(out.decode().splitlines()[-1]))
        return results
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.communicate()


def run_sim(seed, seconds, trace, workdir):
    # The experiment is fixed at seed 42 so its fingerprint can be
    # checked; ``seed`` and ``seconds`` do not change its inputs.
    if not trace:
        setups = [child["setup_s"]
                  for _ in range(SIM_SETUPS)
                  for child in _run_sim_children(["setup"])]
        # Side by side on two cores: the plain run wraps no program code
        # and gives the wall time; the other times the cache batches.
        plain, batches = runs = _run_sim_children(["run"],
                                                  ["run", "--batches"])
        wall_s = plain["wall_s"] * plain["scale"]
        scale = batches["scale"]
        metrics = {
            "ops_per_s": (batches["gets"] + batches["puts"]) / wall_s,
            "get_p50_us": batches["get_p50_ns"] * scale / 1e3,
            "get_p99_us": batches["get_p99_ns"] * scale / 1e3,
            "set_p50_us": batches["put_p50_ns"] * scale / 1e3,
            "set_p99_us": batches["put_p99_ns"] * scale / 1e3,
            "hit_ratio": batches["hits"] / batches["keys"],
            # A set-up is too short to time reference slices beside it
            # (ten slices in a fresh process read 0.9 to 1.4 times their
            # mean); the two runs' factors read both cores a few
            # seconds later.
            "setup_s": median(setups) * (plain["scale"]
                                         + batches["scale"]) / 2,
            "rss_mb": plain["rss_mb"],
            "wall_s": wall_s,
        }
        report = [f"samples: get {batches['gets']}, set {batches['puts']}"
                  f" batches (p50 over means of {BATCH_GROUP})",
                  f"host wall_s {plain['wall_s']:.3f}; timings "
                  f"x{plain['scale']:.4f} to the reference speed",
                  f"host wall_s with batch timing {batches['wall_s']:.3f}"]
    else:
        # Side by side on two cores, so the run stays short; both slow
        # alike, which the overhead ratio cancels.
        plain, sampled = runs = _run_sim_children(["run"],
                                                  ["run", "--sample"])
        total = sum(sampled["samples"].values())
        wall_s = plain["wall_s"] * plain["scale"]
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        for layer, hits in sampled["samples"].items():
            metrics[f"sim.{layer}.self_s"] = hits / total * wall_s
        metrics["sim.events"] = sampled["events"]
        metrics["sim.host_us_per_event"] = wall_s * 1e6 / sampled["events"]
        # Host seconds, not rescaled: the sampler's interruptions slow
        # the reference slices too, and rescaling would hide them.
        metrics["trace.overhead_pct"] = (
            sampled["wall_s"] / plain["wall_s"] - 1) * 100
        report = [f"wall_s untraced {plain['wall_s']:.2f}, "
                  f"traced {sampled['wall_s']:.2f} (side by side)",
                  f"profile samples {total}"]
    bad = [r["fingerprint"] for r in runs if r["fingerprint"] != SIM_GOLDEN]
    report += [f"fingerprint mismatch: {fp}" for fp in bad]
    report.insert(0, machine_line("none"))
    return metrics, len(runs), len(bad), report


# -- entry point -------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    # On SIGTERM, unwind through the finally blocks that stop the
    # servers and simulator children this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        if args.workload == "sim_caching_modes":
            metrics, attempted, failed, report = run_sim(
                args.seed, args.seconds, args.trace, workdir)
        else:
            metrics, attempted, failed, report = run_service(
                args.workload, args.seed, args.seconds, args.trace, workdir)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        # svc.BenchFailure is a RuntimeError: the server broke protocol.
        print(f"run failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for line in report:
        print(line)
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.4f} {unit}")
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
