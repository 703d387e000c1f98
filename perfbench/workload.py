"""Seeded inputs and the arithmetic the benchmark reports with.

Everything the load generator sends is a pure function of the seed:

* each tenant draws its keys from its own Zipf-skewed stream; the seed
  decides which key holds which popularity rank;
* a value's size is a function of its key's popularity rank and the
  tenant — about 80% of values fall in 256 B–4 KiB, 17% in 4–32 KiB and
  3% in 32–128 KiB.  The sizes by rank do not depend on the seed: with a
  skewed stream the few hottest keys carry much of the traffic, and if
  the seed chose their sizes, the bytes moved per request, and so every
  timing, would change with the seed;
* a value's bytes are a function of ``(seed, tenant, key, version)``,
  where ``version`` counts the sets the client has made of that key, so
  a hit can be checked against exactly the bytes stored last.

The module also holds the percentile and span self-time arithmetic, so
the tests can check it without a server.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

KIB = 1024

#: (share, low bytes, high bytes) of the value-size mix.
SIZE_CLASSES = ((0.80, 256, 4 * KIB), (0.17, 4 * KIB, 32 * KIB),
                (0.03, 32 * KIB, 128 * KIB))

#: Zipf exponent of the key popularity skew.
ZIPF_S = 0.99


def key_name(index: int) -> str:
    return f"k{index:05d}"


def rank_sizes(tenant: str, nkeys: int) -> List[int]:
    """Value size in bytes of each popularity rank of a tenant."""
    rng = random.Random(f"sizes:{tenant}:{nkeys}")
    sizes = []
    for _ in range(nkeys):
        pick = rng.random()
        for share, low, high in SIZE_CLASSES:
            if pick < share:
                break
            pick -= share
        sizes.append(rng.randrange(low, high))
    return sizes


def value_bytes(seed: int, tenant: str, key: str, version: int,
                size: int) -> bytes:
    """The bytes of version ``version`` of ``(tenant, key)``."""
    digest = hashlib.blake2b(
        f"value:{seed}:{tenant}:{key}:{version}".encode(),
        digest_size=64).digest()
    return (digest * (size // len(digest) + 1))[:size]


class ZipfKeys:
    """An endless seeded stream of key indices in ``[0, nkeys)``.

    Popularity ranks are shuffled over the key indices, so the hottest
    keys are not simply the lowest-numbered ones.
    """

    def __init__(self, seed: int, tenant: str, nkeys: int) -> None:
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(nkeys)]
        total = sum(weights)
        acc = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._rng = random.Random(f"keys:{seed}:{tenant}")
        #: rank -> key index
        self.ranked = list(range(nkeys))
        self._rng.shuffle(self.ranked)

    def next(self) -> int:
        rank = bisect.bisect_left(self._cdf, self._rng.random())
        return self.ranked[min(rank, len(self.ranked) - 1)]


@dataclass
class Tenant:
    """One tenant of a service workload and the client's ledger of it."""

    name: str
    nkeys: int
    seed: int

    def __post_init__(self) -> None:
        self.keys = ZipfKeys(self.seed, self.name, self.nkeys)
        by_rank = rank_sizes(self.name, self.nkeys)
        self._sizes: Dict[str, int] = {
            key_name(index): by_rank[rank]
            for rank, index in enumerate(self.keys.ranked)}
        #: key -> (version, bytes) of the value stored last.
        self.stored: Dict[str, Tuple[int, bytes]] = {}
        self.gets = 0
        self.get_hits = 0
        self.puts = 0
        self.puts_stored = 0

    def size(self, key: str) -> int:
        return self._sizes[key]

    def next_value(self, key: str) -> bytes:
        """Bytes for the next set of ``key`` (one version past the last)."""
        last = self.stored.get(key)
        version = last[0] + 1 if last is not None else 1
        return value_bytes(self.seed, self.name, key, version, self.size(key))

    def record_set(self, key: str, value: bytes, stored: bool) -> None:
        self.puts += 1
        if stored:
            self.puts_stored += 1
            last = self.stored.get(key)
            version = last[0] + 1 if last is not None else 1
            self.stored[key] = (version, value)

    def check_hit(self, key: str, value: bytes) -> bool:
        """True when ``value`` is exactly what was stored last under key."""
        last = self.stored.get(key)
        return last is not None and last[1] == value

    def ledger(self) -> Dict[str, int]:
        return {"gets": self.gets, "get_hits": self.get_hits,
                "puts": self.puts, "puts_stored": self.puts_stored}


def ledger_mismatches(client: Dict[str, Dict[str, int]],
                      server: Dict[str, object]) -> List[str]:
    """Fields where the server's ``stats`` disagree with the client.

    ``server`` is a parsed ``stats`` reply (``"<tenant>:<field>" ->
    value``); ``client`` maps tenant -> its own ledger.
    """
    bad = []
    for tenant, fields in sorted(client.items()):
        for field, want in sorted(fields.items()):
            got = server.get(f"{tenant}:{field}")
            if got != want:
                bad.append(f"{tenant}:{field} server={got} client={want}")
    return bad


# -- arithmetic -----------------------------------------------------------

def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in ``(0, 1]``) of unsorted samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def group_means(samples: Sequence[float], size: int) -> List[float]:
    """Means of consecutive groups of ``size`` samples; a last, short
    group is dropped."""
    return [sum(samples[i:i + size]) / size
            for i in range(0, len(samples) - size + 1, size)]


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Self time of each span: its duration minus its children's.

    A span is ``(name, start, end, parent, request)`` where ``parent`` is
    the index of the enclosing span in ``spans`` or ``-1``.  Children of
    one span never overlap (the server runs one call stack), so their
    durations add.
    """
    out = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            out[parent] -= span[2] - span[1]
    return out
