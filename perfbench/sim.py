"""Child process for the ``sim_caching_modes`` workload.

``python perfbench/sim.py setup`` times the simulator's imports and the
experiment's construction.
``python perfbench/sim.py run [--batches | --sample]`` runs the
``perf_smoke`` configuration of the caching-modes experiment (FIG-8/9,
TAB-2) and prints one JSON object: host wall seconds, the summary's
SHA-256 and peak RSS.

A plain ``run`` wraps no program code, so its wall seconds hold the
program's work alone.  ``--batches`` adds the host time of every
hypervisor-cache ``get_many``/``put_many`` batch: it wraps the public
data-path methods of every ``HypervisorCacheBase`` implementation from
here, so the program itself is unchanged.  The methods are generators
that yield to the simulation kernel, so a batch's host time is the sum
of its resumptions and leaves out the time it spends suspended.

Every run times a reference slice (``reference.py``) every
``REF_PERIOD_S`` of wall-clock time, from a ``SIGALRM`` handler on the
core the simulator runs on; ``run.py`` rescales the simulator's timings
by the slices' mean time.

``--sample`` adds a sampling profiler that looks at the main thread's
innermost frame every millisecond and folds the samples by ``repro``
package, and counts the entries popped from the kernel's timeline.
(Under cProfile the run takes 3.5 times as long, past the time one
benchmark run may take.)
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import signal
import sys
import threading
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from reference import Reference, rescale_factor  # noqa: E402
from workload import group_means, percentile  # noqa: E402

SCALE = 0.02
SEED = 42

#: Packages the sampled self time is folded into; ``core`` is split by
#: module because the service shares ``core.pools`` and ``core.engine``.
SIM_LAYERS = (
    "simkernel", "guest", "mem", "cleancache", "core.cache_manager",
    "core.pools", "core.stores", "core.baselines", "core.engine",
    "core.other", "storage", "workloads", "cgroups", "metrics",
    "repro.other", "other",
)

SAMPLE_INTERVAL_S = 0.001

#: Consecutive batches of one kind whose mean is one latency sample.
BATCH_GROUP = 32

#: Wall-clock seconds between two reference slices.
REF_PERIOD_S = 0.04


def layer_of(filename: str) -> str:
    """The ``SIM_LAYERS`` bucket a source file belongs to."""
    prefix = SRC + os.sep + "repro" + os.sep
    if not filename.startswith(prefix):
        return "other"
    parts = filename[len(prefix):].split(os.sep)
    if len(parts) == 1:
        return "repro.other"
    package = parts[0]
    if package == "core":
        name = "core." + parts[1].rsplit(".", 1)[0]
        return name if name in SIM_LAYERS else "core.other"
    return package if package in SIM_LAYERS else "repro.other"


def _timed(gen, sink):
    """Drive ``gen`` as ``yield from`` would, adding its busy ns to sink."""
    clock = time.perf_counter_ns
    busy = 0
    step, arg = gen.send, None
    while True:
        t0 = clock()
        try:
            item = step(arg)
        except StopIteration as stop:
            sink.append(busy + clock() - t0)
            return stop.value
        busy += clock() - t0
        try:
            arg = yield item
            step = gen.send
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, as yield from does
            step, arg = gen.throw, exc


class BatchTimer:
    """Host ns of every hypervisor-cache get and put batch."""

    def __init__(self) -> None:
        self.get_ns: list = []
        self.put_ns: list = []
        self.keys = 0
        self.hits = 0

    def install(self) -> None:
        from repro.core.interface import HypervisorCacheBase
        pending = [HypervisorCacheBase]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for name, sink in (("get_many", self.get_ns),
                               ("put_many", self.put_ns)):
                fn = cls.__dict__.get(name)
                if fn is not None and inspect.isgeneratorfunction(fn):
                    setattr(cls, name,
                            self._wrap(fn, sink, name == "get_many"))

    def _wrap(self, fn, sink, is_get):
        timer = self

        @functools.wraps(fn)
        def wrapper(cache, vm_id, pool_id, keys):
            found = yield from _timed(fn(cache, vm_id, pool_id, keys), sink)
            if is_get:
                timer.keys += len(keys)
                timer.hits += len(found)
            return found
        return wrapper


class EventCounter:
    """Counts entries popped from the simulation kernel's timeline."""

    def __init__(self) -> None:
        self.events = 0

    def install(self) -> None:
        from repro.simkernel.timeline import CalendarTimeline
        pop = CalendarTimeline.pop
        counter = self

        @functools.wraps(pop)
        def counted(timeline):
            entry = pop(timeline)
            if entry is not None:
                counter.events += 1
            return entry
        CalendarTimeline.pop = counted


class ReferenceTicker:
    """Times a reference slice every ``REF_PERIOD_S`` of wall-clock time.

    The slices run in a ``SIGALRM`` handler, which Python calls in the
    main thread between two bytecodes, so they run on the simulator's
    core without wrapping any program code.
    """

    def __init__(self) -> None:
        self.ref_ns: list = []
        self._reference = Reference()

    def _tick(self, signum, frame) -> None:
        self.ref_ns.append(self._reference.time_slice())

    def __enter__(self) -> "ReferenceTicker":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Sampler:
    """Samples the main thread's innermost frame on a timer thread."""

    def __init__(self) -> None:
        self.counts = {layer: 0 for layer in SIM_LAYERS}
        self._target = threading.main_thread().ident
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._layers: dict = {}

    def _run(self) -> None:
        frames = sys._current_frames
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = frames().get(self._target)
            if frame is None:
                continue
            filename = frame.f_code.co_filename
            layer = self._layers.get(filename)
            if layer is None:
                layer = self._layers[filename] = layer_of(filename)
            self.counts[layer] += 1

    def __enter__(self) -> "Sampler":
        # The timer thread needs the GIL at each tick; a switch interval
        # shorter than the tick lets it in on time.
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLE_INTERVAL_S / 2)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run(mode: str) -> dict:
    """One run of the experiment; ``mode`` is "plain", "batches" or
    "sample"."""
    from repro.experiments.caching_modes import CachingModesExperiment
    timer = BatchTimer() if mode == "batches" else None
    counter = EventCounter() if mode == "sample" else None
    sampler = Sampler() if mode == "sample" else None
    for hook in (timer, counter):
        if hook is not None:
            hook.install()
    experiment = CachingModesExperiment(scale=SCALE, seed=SEED)
    started = time.perf_counter()
    with ReferenceTicker() as ticker:
        if sampler is not None:
            with sampler:
                result = experiment.run()
        else:
            result = experiment.run()
    wall_s = time.perf_counter() - started
    summary = result.summary(plots=False)
    out = {
        # host seconds of the experiment, without the reference slices
        "wall_s": wall_s - sum(ticker.ref_ns) / 1e9,
        "scale": rescale_factor(ticker.ref_ns),
        "fingerprint": hashlib.sha256(summary.encode("utf-8")).hexdigest(),
        "rss_mb": peak_rss_mb(),
    }
    if timer is not None:
        # About half the put batches take ~65 us and the rest ~105 us, so
        # the median single batch sits in the gap and jumps between the
        # two; the median of means of BATCH_GROUP consecutive batches
        # mixes both.  The p99 is taken over single batches, so a slow
        # batch in a hundred reaches it undiluted.
        get_means = group_means(timer.get_ns, BATCH_GROUP)
        put_means = group_means(timer.put_ns, BATCH_GROUP)
        out.update({
            "gets": len(timer.get_ns),
            "puts": len(timer.put_ns),
            "get_p50_ns": percentile(get_means, 0.50),
            "get_p99_ns": percentile(timer.get_ns, 0.99),
            "put_p50_ns": percentile(put_means, 0.50),
            "put_p99_ns": percentile(timer.put_ns, 0.99),
            "keys": timer.keys,
            "hits": timer.hits,
        })
    if counter is not None:
        out["events"] = counter.events
        out["samples"] = sampler.counts
    return out


def setup() -> dict:
    from repro.experiments.caching_modes import CachingModesExperiment
    CachingModesExperiment(scale=SCALE, seed=SEED)
    return {"setup_s": time.perf_counter() - START}


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps(setup()))
    elif argv[:1] == ["run"] and argv[1:] in ([], ["--batches"],
                                               ["--sample"]):
        print(json.dumps(run(argv[1][2:] if argv[1:] else "plain")))
    else:
        print("usage: sim.py setup | run [--batches | --sample]",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
