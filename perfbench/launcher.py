"""Traced launcher for the cache service: ``python perfbench/launcher.py
SPANS_PATH [repro.service arguments...]``.

Runs ``repro.service`` in this process with the benchmark's own
instruments wrapped around the public methods of each layer:

* ``ServiceCache.get/set/delete``, ``PolicyEngine.select_eviction``,
  ``Pool.insert/pop_oldest/remove_inode`` and
  ``DiskStore.get/set/delete_entry`` each record a span
  ``[name, start_ns, end_ns, parent, request, tenant, outcome]``;
* SQLite statements are counted through
  ``sqlite3.Connection.set_trace_callback``, and ``os.fsync`` and
  ``open`` calls through wrappers; each count is charged to the
  innermost open span.

Spans stay in memory; after the server's graceful shutdown (SIGTERM)
they are written to ``SPANS_PATH`` as one JSON object.  The program's
own code is not changed.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
import sqlite3
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.engine import PolicyEngine  # noqa: E402
from repro.core.pools import Pool  # noqa: E402
from repro.service import __main__ as service_main  # noqa: E402
from repro.service.cache import ServiceCache  # noqa: E402
from repro.service.store import DiskStore  # noqa: E402

#: Counter slots of a span's count row.
COUNTS = ("sql", "commits", "fsyncs", "opens")


class Recorder:
    """Spans and per-span counts, kept in memory until shutdown."""

    def __init__(self) -> None:
        self.spans: list = []
        #: span index -> [sql, commits, fsyncs, opens]
        self.counts: dict = {}
        self._stack: list = []
        self._requests = 0

    def wrap(self, cls, method: str, tenant_arg: bool = False,
             outcome=None) -> None:
        """Replace ``cls.method`` with a span-recording wrapper."""
        fn = getattr(cls, method)
        name = f"{cls.__name__}.{method}"
        spans, stack = self.spans, self._stack
        clock = time.monotonic_ns
        recorder = self

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if stack:
                parent = stack[-1]
                request = spans[parent][4]
            else:
                parent = -1
                recorder._requests += 1
                request = recorder._requests
            span = [name, clock(), 0, parent, request,
                    args[0] if tenant_arg else None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(obj, *args, **kwargs)
                if outcome is not None:
                    span[6] = outcome(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()
        setattr(cls, method, wrapper)

    def count(self, slot: int) -> None:
        if self._stack:
            row = self.counts.get(self._stack[-1])
            if row is None:
                row = self.counts[self._stack[-1]] = [0] * len(COUNTS)
            row[slot] += 1

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans,
                       "counts": {str(k): v for k, v in self.counts.items()},
                       "count_names": list(COUNTS)}, out)


def install(recorder: Recorder) -> None:
    recorder.wrap(ServiceCache, "get", tenant_arg=True,
                  outcome=lambda found: found is not None)
    recorder.wrap(ServiceCache, "set", tenant_arg=True,
                  outcome=lambda status: status)
    recorder.wrap(ServiceCache, "delete", tenant_arg=True)
    recorder.wrap(PolicyEngine, "select_eviction")
    recorder.wrap(Pool, "insert")
    recorder.wrap(Pool, "pop_oldest",
                  outcome=lambda popped: popped is not None)
    recorder.wrap(Pool, "remove_inode")
    recorder.wrap(DiskStore, "get")
    recorder.wrap(DiskStore, "set")
    recorder.wrap(DiskStore, "delete_entry")

    def on_sql(statement: str) -> None:
        recorder.count(0)
        if statement.lstrip().upper().startswith("COMMIT"):
            recorder.count(1)

    connect = sqlite3.connect

    @functools.wraps(connect)
    def traced_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(on_sql)
        return conn
    sqlite3.connect = traced_connect

    fsync = os.fsync

    @functools.wraps(fsync)
    def counted_fsync(fd):
        recorder.count(2)
        return fsync(fd)
    os.fsync = counted_fsync

    real_open = builtins.open

    @functools.wraps(real_open)
    def counted_open(*args, **kwargs):
        recorder.count(3)
        return real_open(*args, **kwargs)
    builtins.open = counted_open


def main(argv) -> int:
    if not argv:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    spans_path, service_args = argv[0], argv[1:]
    recorder = Recorder()
    real_open = builtins.open
    install(recorder)
    status = service_main.main(service_args)
    builtins.open = real_open
    recorder.write(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
