"""Keyed cache of single-application reference makespans.

Computing the reference makespan ``M_own`` of an application (its
makespan when it has the whole platform to itself) requires a full
single-PTG schedule plus a simulation, and the serial campaign runner
recomputes it for every experiment.  The cache in this module keys those
makespans by ``(PTG content fingerprint, platform content fingerprint)``
so that

* the seven-or-eight strategies of one experiment share one computation
  (as the serial runner already does),
* the same workload replayed on the same platform by a resumed run
  shares one computation campaign-wide,
* a persisted cache (:meth:`OwnMakespanCache.save`) lets an interrupted
  campaign resume without re-simulating any reference makespan.

Distinct applications of a generated workload do not share entries:
every family draws its task costs per graph, so even the Strassen and
FFT PTGs of one workload all have different fingerprints.

Fingerprints are SHA-256 digests of the canonical JSON serialisation of
the object *content* (the PTG name is excluded, so a renamed copy of a
graph shares its cache entries).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.allocation.base import AllocationProcedure
from repro.dag.graph import PTG
from repro.dag.io import ptg_to_dict
from repro.platform.multicluster import MultiClusterPlatform
from repro.scheduler.single import SinglePTGScheduler
from repro.simulate.executor import ScheduleExecutor

# Re-exported here for backward compatibility: the digest helpers moved
# to repro.utils.digest so the scenario spec layer can share the exact
# key scheme without importing the campaign subsystem.
from repro.utils.digest import content_digest, platform_fingerprint  # noqa: F401

#: Version stamp of the cache file format and of the fingerprint scheme.
CACHE_FORMAT_VERSION = 1


def ptg_fingerprint(graph: PTG) -> str:
    """Content fingerprint of a PTG.

    Only scheduling-relevant content is hashed: task costs and edges.
    Graph and task *names* are excluded, so a renamed copy of a graph
    (a replayed workload, a recurring job) shares its fingerprint -- and
    therefore its cached reference makespan.  Generated workloads draw
    task costs per graph, so their applications never share one.
    """
    payload = ptg_to_dict(graph)
    payload.pop("name", None)
    for task in payload["tasks"]:
        task.pop("name", None)
    return content_digest(payload)


class OwnMakespanCache:
    """In-memory cache of own makespans, keyed by content fingerprints.

    The cache tracks which entries were inserted after construction
    (:attr:`new_entries`) so a worker process can ship only its fresh
    computations back to the orchestrator, and counts hits and misses so
    the benchmark harness can report a hit rate.
    """

    def __init__(self, entries: Optional[Mapping[str, float]] = None) -> None:
        self.entries: Dict[str, float] = dict(entries or {})
        self.new_entries: Dict[str, float] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(ptg_fp: str, platform_fp: str) -> str:
        """Cache key of one ``(application, platform)`` pair."""
        return f"{ptg_fp}:{platform_fp}"

    def get(self, ptg_fp: str, platform_fp: str) -> Optional[float]:
        """Cached makespan for the pair, counting the hit or miss."""
        value = self.entries.get(self.key(ptg_fp, platform_fp))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, ptg_fp: str, platform_fp: str, makespan: float) -> None:
        """Record a freshly simulated makespan."""
        key = self.key(ptg_fp, platform_fp)
        self.entries[key] = makespan
        self.new_entries[key] = makespan

    def merge(self, entries: Mapping[str, float]) -> None:
        """Absorb entries computed elsewhere (e.g. by a worker process)."""
        self.entries.update(entries)
        self.new_entries.update(entries)

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str) -> None:
        """Write the cache to *path* as a JSON document."""
        payload = {"format_version": CACHE_FORMAT_VERSION, "entries": self.entries}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    @classmethod
    def load(cls, path: str) -> "OwnMakespanCache":
        """Read a cache written by :meth:`save`; missing files yield an empty cache."""
        if not os.path.exists(path):
            return cls()
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format_version") != CACHE_FORMAT_VERSION:
            return cls()
        entries = payload.get("entries", {})
        return cls({str(k): float(v) for k, v in entries.items()})


def compute_own_makespans_cached(
    ptgs: Iterable[PTG],
    platform: MultiClusterPlatform,
    cache: OwnMakespanCache,
    platform_fp: Optional[str] = None,
    allocator: Optional[AllocationProcedure] = None,
) -> Dict[str, float]:
    """Own makespan of each application, simulating only on cache misses.

    This is the cached counterpart of
    :func:`repro.experiments.runner.compute_own_makespans`: misses are
    scheduled and simulated exactly as the serial runner does, so a
    cached campaign reproduces the uncached one bit for bit.  Misses
    allocate through *allocator* (default: a fresh SCRAP-MAX), which
    must compute what the default would.
    """
    plat_fp = platform_fp or platform_fingerprint(platform)
    scheduler: Optional[SinglePTGScheduler] = None
    executor: Optional[ScheduleExecutor] = None
    own: Dict[str, float] = {}
    for ptg in ptgs:
        fp = ptg_fingerprint(ptg)
        cached = cache.get(fp, plat_fp)
        if cached is not None:
            own[ptg.name] = cached
            continue
        if scheduler is None:
            scheduler = SinglePTGScheduler(allocator=allocator)
            executor = ScheduleExecutor(platform)
        result = scheduler.schedule(ptg, platform)
        report = executor.execute([ptg], result.schedule)
        makespan = report.makespan(ptg.name)
        cache.put(fp, plat_fp, makespan)
        own[ptg.name] = makespan
    return own
