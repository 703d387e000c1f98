"""Service workloads: a ``repro.service`` server process and a closed-loop
client over TCP, one connection per tenant.

``svc_hot_read`` preloads 2 tenants x 800 keys into the default 64 MB
cache, then times skewed single-key gets that must all hit.
``svc_churn`` runs a read-through loop (get, then set on a miss) on a
16 MB cache shared by a 300-key tenant and a 6000-key tenant, warms
until twice the capacity has been written, then times the same loop.

The server runs with fsync on, its production default, and its store on
a tmpfs mounted in a private mount namespace (``PRIVATE_TMPFS``), so the
timings hold the program's work and no disk's.

Every hit is checked against the bytes the client stored last, and each
tenant's ``stats`` ledger must equal the client's own counts.
"""

from __future__ import annotations

import asyncio
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from reference import Reference
from workload import Tenant, key_name, ledger_mismatches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

MB = 1 << 20
#: Length of one timed slice; ``ops_per_s`` is the median slice rate.
SLICE_S = 0.5
#: Bytes written before timing, in cache capacities.  The first fill
#: starts eviction; one more capacity turns the FIFO over once, so
#: eviction is in steady state.
WARM_FACTOR = 2.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
#: Slices per side in a traced run (see ``run_traced``).
TRACE_SLICES = 4


@dataclass(frozen=True)
class Spec:
    name: str
    tenants: Tuple[Tuple[str, int], ...]
    capacity_mb: float
    #: "read": preload every key, then time gets only.
    #: "churn": read-through loop, warmed until ``WARM_FACTOR`` x the
    #: capacity has been written.
    mode: str
    #: Server launches per run; each is set up, then timed for an equal
    #: share of the run.
    launches: int


SPECS = {
    "svc_hot_read": Spec("svc_hot_read", (("a", 800), ("b", 800)), 64.0,
                         "read", 8),
    "svc_churn": Spec("svc_churn", (("small", 300), ("large", 6000)), 16.0,
                      "churn", 4),
}


class BenchFailure(RuntimeError):
    """A reply the protocol does not allow; the stream is unusable."""


@dataclass
class Phase:
    """Client-side record of one phase of a server's life."""

    get_ns: List[int] = field(default_factory=list)
    set_ns: List[int] = field(default_factory=list)
    hits: int = 0
    failed: int = 0
    #: (start, end) monotonic ns of each timed slice
    windows: List[Tuple[int, int]] = field(default_factory=list)
    #: requests completed in each slice of ``windows``
    window_ops: List[int] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.get_ns) + len(self.set_ns)

    @property
    def seconds(self) -> float:
        return sum(end - start for start, end in self.windows) / 1e9

    def extend(self, other: "Phase") -> None:
        self.get_ns += other.get_ns
        self.set_ns += other.set_ns
        self.hits += other.hits
        self.failed += other.failed
        self.windows += other.windows
        self.window_ops += other.window_ops

    def slice_rates(self) -> List[float]:
        """Requests per second in each timed slice."""
        return [ops * 1e9 / (end - start)
                for ops, (start, end) in zip(self.window_ops, self.windows)]


class Conn:
    """One memcached text-protocol connection bound to one tenant."""

    def __init__(self, reader, writer, tenant: Tenant) -> None:
        self.reader = reader
        self.writer = writer
        self.tenant = tenant

    @classmethod
    async def open(cls, port: int, tenant: Tenant) -> "Conn":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conn = cls(reader, writer, tenant)
        writer.write(f"tenant {tenant.name}\r\n".encode())
        if await reader.readline() != b"OK\r\n":
            raise BenchFailure("tenant command refused")
        return conn

    async def get(self, key: str) -> Optional[bytes]:
        self.writer.write(f"get {key}\r\n".encode())
        line = await self.reader.readline()
        if line == b"END\r\n":
            return None
        head = line.split()
        if len(head) != 4 or head[0] != b"VALUE" or head[1] != key.encode():
            raise BenchFailure(f"get {key}: {line[:80]!r}")
        body = await self.reader.readexactly(int(head[3]) + 2)
        if await self.reader.readline() != b"END\r\n":
            raise BenchFailure(f"get {key}: missing END")
        return body[:-2]

    async def set(self, key: str, value: bytes) -> bytes:
        self.writer.write(b"".join((
            f"set {key} 0 0 {len(value)}\r\n".encode(), value, b"\r\n")))
        await self.writer.drain()
        return (await self.reader.readline()).rstrip(b"\r\n")

    async def stats(self) -> Dict[str, object]:
        self.writer.write(b"stats\r\n")
        out: Dict[str, object] = {}
        while True:
            line = (await self.reader.readline()).decode().rstrip("\r\n")
            if line == "END":
                return out
            parts = line.split()
            if len(parts) != 3 or parts[0] != "STAT":
                raise BenchFailure(f"stats: {line[:80]!r}")
            try:
                out[parts[1]] = int(parts[2])
            except ValueError:
                out[parts[1]] = float(parts[2])

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class Client:
    """The closed loop: each connection sends its next request only after
    the previous reply."""

    def __init__(self, spec: Spec, seed: int, port: int) -> None:
        self.spec = spec
        self.port = port
        self.tenants = [Tenant(name, nkeys, seed)
                        for name, nkeys in spec.tenants]
        self.conns: List[Conn] = []
        self.bytes_stored = 0

    async def connect(self) -> None:
        for tenant in self.tenants:
            self.conns.append(await Conn.open(self.port, tenant))

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    async def _set(self, conn: Conn, key: str, phase: Phase) -> None:
        tenant = conn.tenant
        value = tenant.next_value(key)
        t0 = time.perf_counter_ns()
        reply = await conn.set(key, value)
        phase.set_ns.append(time.perf_counter_ns() - t0)
        stored = reply == b"STORED"
        tenant.record_set(key, value, stored)
        if stored:
            self.bytes_stored += len(value)
        elif reply == b"NOT_STORED":
            phase.failed += 1
        else:
            raise BenchFailure(f"set {key}: {reply[:80]!r}")

    async def _get(self, conn: Conn, key: str, phase: Phase) -> bool:
        tenant = conn.tenant
        t0 = time.perf_counter_ns()
        value = await conn.get(key)
        phase.get_ns.append(time.perf_counter_ns() - t0)
        tenant.gets += 1
        if value is None:
            return False
        tenant.get_hits += 1
        phase.hits += 1
        if not tenant.check_hit(key, value):
            phase.failed += 1
        return True

    async def _preload(self, conn: Conn, phase: Phase) -> None:
        for index in range(conn.tenant.nkeys):
            await self._set(conn, key_name(index), phase)

    async def _loop(self, conn: Conn, phase: Phase, until) -> None:
        read_through = self.spec.mode == "churn"
        tenant = conn.tenant
        while not until():
            key = key_name(tenant.keys.next())
            hit = await self._get(conn, key, phase)
            if not hit:
                if read_through:
                    await self._set(conn, key, phase)
                else:
                    phase.failed += 1  # every key was preloaded

    async def _all(self, make) -> None:
        await asyncio.gather(*(make(conn) for conn in self.conns))

    async def set_up(self) -> Phase:
        phase = Phase()
        if self.spec.mode == "read":
            await self._all(lambda conn: self._preload(conn, phase))
        else:
            target = WARM_FACTOR * self.spec.capacity_mb * MB
            await self._all(lambda conn: self._loop(
                conn, phase, lambda: self.bytes_stored >= target))
        return phase

    async def measure(self, seconds: float) -> Phase:
        phase = Phase()
        started = time.monotonic_ns()
        deadline = started + int(seconds * 1e9)
        await self._all(lambda conn: self._loop(
            conn, phase, lambda: time.monotonic_ns() >= deadline))
        phase.windows.append((started, time.monotonic_ns()))
        phase.window_ops.append(phase.ops)
        return phase

    async def check_ledgers(self) -> List[str]:
        server = await self.conns[0].stats()
        return ledger_mismatches(
            {tenant.name: tenant.ledger() for tenant in self.tenants}, server)


#: Runs the rest of the command line in a private mount namespace with a
#: tmpfs mounted on the directory that follows: the store lives at its
#: path in the checkout, in memory, seen by the server alone, and the
#: mount goes away when the server exits.
PRIVATE_TMPFS = ["unshare", "--mount", "--propagation", "private", "--",
                 "sh", "-c",
                 'mount -t tmpfs -o size=256m perfbench "$0" && exec "$@"']


def private_tmpfs_works(directory: str) -> bool:
    """True when this process may mount a private tmpfs on ``directory``
    (``unshare`` and ``mount`` present, and the privilege to use them)."""
    try:
        return subprocess.run([*PRIVATE_TMPFS, directory, "true"],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              timeout=START_TIMEOUT_S).returncode == 0
    except OSError:
        return False


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, fields[2]
    return kind


class Server:
    """A ``python -m repro.service`` process (or the traced launcher),
    with its store on a private tmpfs when ``tmpfs`` is true."""

    def __init__(self, workdir: str, spec: Spec, tmpfs: bool,
                 spans_path: Optional[str] = None) -> None:
        self.store_dir = os.path.join(workdir, "store")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        os.makedirs(self.store_dir)
        # The service's production default: fsync on.
        service_args = ["--port", "0", "--dir", self.store_dir,
                        "--capacity-mb", str(spec.capacity_mb)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.service", *service_args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                   spans_path, *service_args]
        if tmpfs:
            cmd = [*PRIVATE_TMPFS, self.store_dir, *cmd]
            self.store_fs = "tmpfs"
        else:
            self.store_fs = fs_type(self.store_dir)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self._log = open(os.path.join(workdir, "server.log"), "ab")
        #: perf_counter seconds at launch and at exit
        self.started = time.perf_counter()
        self.stopped = 0.0
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        self.port = self._await_listening()

    def _await_listening(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise BenchFailure(f"server did not start: {line!r}")
        return int(line.split()[3].rsplit(":", 1)[1])

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as handle:
            return handle.read()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchFailure("VmHWM missing")

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """Graceful shutdown (SIGTERM), killed if it hangs; returns the
        exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.stopped = time.perf_counter()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Launch:
    """One server process and the client driving it."""

    def __init__(self, spec: Spec, seed: int, workdir: str, tmpfs: bool,
                 spans_path: Optional[str] = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        self.server = Server(workdir, spec, tmpfs, spans_path)
        self.client = Client(spec, seed, self.server.port)
        self.setup = Phase()
        self.setup_s = 0.0
        self.measured = Phase()
        self._reference = Reference()
        #: ns of the reference slices timed on each core between the
        #: timed slices, while the server is idle
        self.reference_ns: List[int] = []
        #: server CPU seconds spent inside the timed slices
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.failures: List[str] = []

    @property
    def tenants(self) -> List[Tenant]:
        return self.client.tenants

    @property
    def failed(self) -> int:
        return self.setup.failed + self.measured.failed + len(self.failures)

    @property
    def attempted(self) -> int:
        return self.setup.ops + self.measured.ops

    @property
    def untimed_s(self) -> float:
        """Seconds of the server's life outside the timed slices: start,
        set-up, ledger check and graceful stop."""
        return (self.server.stopped - self.server.started
                - self.measured.seconds - sum(self.reference_ns) / 1e9)

    async def set_up(self) -> None:
        await self.client.connect()
        self.setup = await self.client.set_up()
        self.setup_s = time.perf_counter() - self.server.started

    async def measure(self, seconds: float) -> None:
        """Time the loop for ``seconds``, in slices of about ``SLICE_S``."""
        slices = max(1, round(seconds / SLICE_S))
        cpu0 = self.server.cpu_s()
        for _ in range(slices):
            self.reference_ns += self._reference.time_each_core()
            self.measured.extend(await self.client.measure(seconds / slices))
        self.cpu_s += self.server.cpu_s() - cpu0

    async def check(self) -> None:
        """Peak RSS, then the tenant ledgers over the wire."""
        self.rss_mb = self.server.peak_rss_mb()
        self.failures = await self.client.check_ledgers()
        await self.client.close()


def _run_launches(launches: List[Launch], body) -> None:
    """Run ``body`` on the event loop; stop every server afterwards.
    A server must exit with status 0."""
    try:
        asyncio.run(body())
    finally:
        codes = [launch.server.stop() for launch in launches]
    if any(codes):
        raise BenchFailure(f"server exit status {codes}")


def run_plain(spec: Spec, seed: int, workdir: str,
              seconds: float) -> List[Launch]:
    """``spec.launches`` launches one after another, each timed for an
    equal share of ``seconds``.

    Spreading the timed window over the whole run averages over more of
    the machine's slow drifts in speed than one window at the end would.
    """
    tmpfs = private_tmpfs_works(workdir)
    launches: List[Launch] = []
    for _ in range(spec.launches):
        launch = Launch(spec, seed, workdir, tmpfs)
        launches.append(launch)

        async def body(launch=launch):
            await launch.set_up()
            await launch.measure(seconds / spec.launches)
            await launch.check()
        _run_launches([launch], body)
    return launches


def run_traced(spec: Spec, seed: int, workdir: str, seconds: float,
               spans_path: str) -> Tuple[Launch, Launch]:
    """A plain and a traced server, timed in alternating slices.

    The slices run plain, traced, traced, plain, ... so that a drift in
    the machine's speed during the run reaches both sides alike.  Each
    side is timed for ``seconds`` in all.
    """
    tmpfs = private_tmpfs_works(workdir)
    plain = Launch(spec, seed, os.path.join(workdir, "plain"), tmpfs)
    try:
        traced = Launch(spec, seed, os.path.join(workdir, "traced"), tmpfs,
                        spans_path)
    except BaseException:
        plain.server.stop()
        raise
    slice_s = seconds / (2 * TRACE_SLICES)

    async def body():
        await plain.set_up()
        await traced.set_up()
        for index in range(2 * TRACE_SLICES):
            order = (plain, traced) if index % 2 == 0 else (traced, plain)
            for launch in order:
                await launch.measure(slice_s)
        await plain.check()
        await traced.check()
    _run_launches([plain, traced], body)
    return plain, traced
