"""Append-only persistent store of campaign results.

Layout of a store directory::

    <root>/
        meta.json        -- campaign signature + config summary
        results.jsonl    -- one JSON record per completed experiment shard
        stream.jsonl     -- one record per completed streaming scenario
                            (any other channel name works the same way)
        cache.json       -- persisted own-makespan cache
        workloads/
            <shard key>.json  -- the generated PTGs of the shard
                                 (``repro.dag.io.save_workload`` format)

``results.jsonl`` is append-only: every completed shard is written as a
single line and flushed immediately, so an interrupted campaign loses at
most the shard that was being written.  A truncated trailing line (the
signature of a crash mid-write) is ignored on read and simply re-executed
on resume.

Each channel's log is the store's only format: every read streams it
from the start, and nothing else is consulted.  The column-segment
directory that older versions' ``repro store compact`` wrote is ignored:
compaction never truncated the log, so the log alone still holds every
record.

The records serialise :class:`~repro.experiments.runner.ExperimentResult`
(including every :class:`~repro.experiments.runner.StrategyOutcome`) in
full, so a :class:`~repro.experiments.runner.CampaignResult` re-assembled
from the store aggregates *bit-identically* to one produced in process --
Python floats round-trip exactly through JSON.  The archived workloads
make any single experiment re-runnable on the exact graphs that produced
its record.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.campaigns.cache import OwnMakespanCache
from repro.dag.graph import PTG
from repro.dag.io import load_workload, save_workload
from repro.exceptions import CampaignError
from repro.experiments.runner import ExperimentResult, StrategyOutcome

#: Version stamp of the result-record format.  Version 2 introduced the
#: generic record channels: payloads live under ``payload`` instead of
#: the batch-specific ``result`` key.
STORE_FORMAT_VERSION = 2

#: Versions this reader understands (version-1 stores resume cleanly;
#: readers older than a record's version fail with the explicit
#: unsupported-version error instead of a KeyError).
SUPPORTED_FORMAT_VERSIONS = frozenset({1, 2})

RESULTS_FILENAME = "results.jsonl"
CACHE_FILENAME = "cache.json"
META_FILENAME = "meta.json"
WORKLOADS_DIRNAME = "workloads"


# ---------------------------------------------------------------------- #
# record (de)serialisation
# ---------------------------------------------------------------------- #
def strategy_outcome_to_dict(outcome: StrategyOutcome) -> Dict:
    """Serialise one :class:`StrategyOutcome` to plain JSON types."""
    return {
        "strategy": outcome.strategy,
        "betas": dict(outcome.betas),
        "makespans": dict(outcome.makespans),
        "slowdowns": dict(outcome.slowdowns),
        "unfairness": outcome.unfairness,
        "batch_makespan": outcome.batch_makespan,
        "mean_application_makespan": outcome.mean_application_makespan,
    }


def strategy_outcome_from_dict(payload: Dict) -> StrategyOutcome:
    """Rebuild a :class:`StrategyOutcome` from :func:`strategy_outcome_to_dict`."""
    try:
        return StrategyOutcome(
            strategy=payload["strategy"],
            betas={str(k): float(v) for k, v in payload["betas"].items()},
            makespans={str(k): float(v) for k, v in payload["makespans"].items()},
            slowdowns={str(k): float(v) for k, v in payload["slowdowns"].items()},
            unfairness=float(payload["unfairness"]),
            batch_makespan=float(payload["batch_makespan"]),
            mean_application_makespan=float(payload["mean_application_makespan"]),
        )
    except KeyError as exc:
        raise CampaignError(f"strategy outcome record misses field {exc}") from None


def experiment_result_to_dict(result: ExperimentResult) -> Dict:
    """Serialise one :class:`ExperimentResult` to plain JSON types."""
    return {
        "platform": result.platform,
        "workload": result.workload,
        "n_ptgs": result.n_ptgs,
        "own_makespans": dict(result.own_makespans),
        "outcomes": {
            name: strategy_outcome_to_dict(outcome)
            for name, outcome in result.outcomes.items()
        },
    }


def experiment_result_from_dict(payload: Dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`experiment_result_to_dict`."""
    try:
        return ExperimentResult(
            platform=payload["platform"],
            workload=payload["workload"],
            n_ptgs=int(payload["n_ptgs"]),
            own_makespans={
                str(k): float(v) for k, v in payload["own_makespans"].items()
            },
            outcomes={
                str(name): strategy_outcome_from_dict(out)
                for name, out in payload["outcomes"].items()
            },
        )
    except KeyError as exc:
        raise CampaignError(f"experiment record misses field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise CampaignError(f"malformed experiment record: {exc}") from None


# ---------------------------------------------------------------------- #
# the store
# ---------------------------------------------------------------------- #
class CampaignStore:
    """Directory-backed, append-only store of per-shard experiment results."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------- #
    @property
    def results_path(self) -> Path:
        return self.root / RESULTS_FILENAME

    @property
    def cache_path(self) -> Path:
        return self.root / CACHE_FILENAME

    @property
    def meta_path(self) -> Path:
        return self.root / META_FILENAME

    @property
    def workloads_dir(self) -> Path:
        return self.root / WORKLOADS_DIRNAME

    def workload_path(self, key: str) -> Path:
        return self.workloads_dir / f"{key}.json"

    def channel_path(self, channel: str) -> Path:
        """Path of one record channel (``results`` is the batch channel)."""
        if not channel or any(c in channel for c in "/\\."):
            raise CampaignError(f"invalid store channel name {channel!r}")
        return self.root / f"{channel}.jsonl"

    # -- results ------------------------------------------------------- #
    def append(
        self,
        key: str,
        result: ExperimentResult,
        workload: Optional[List[PTG]] = None,
    ) -> None:
        """Persist one completed shard (and optionally its generated PTGs).

        The record is written as one line and flushed before the call
        returns, so a crash can only ever lose the record being written.
        """
        self.append_payload("results", key, experiment_result_to_dict(result))
        if workload is not None:
            self.workloads_dir.mkdir(parents=True, exist_ok=True)
            save_workload(workload, str(self.workload_path(key)))

    def append_payload(self, channel: str, key: str, payload: Dict) -> None:
        """Append one keyed JSON payload to a record *channel*.

        Channels are parallel append-only JSONL files inside the store
        (the batch results live in the ``results`` channel, streaming
        outcomes in the ``stream`` channel) sharing the same crash-safe
        append discipline: one line per record, flushed and fsynced
        before the call returns.
        """
        record = {
            "format_version": STORE_FORMAT_VERSION,
            "key": key,
            "payload": payload,
        }
        line = json.dumps(record, sort_keys=True)
        with open(self.channel_path(channel), "a+", encoding="utf-8") as handle:
            # A crash can leave a partial record without a trailing newline;
            # terminate it so the new record starts on its own line (the
            # partial line is then skipped as corrupt-but-trailing on read
            # until more records follow -- see iter_payloads).
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(handle.tell() - 1)
                if handle.read(1) != "\n":
                    handle.write("\n")
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def iter_payloads(self, channel: str) -> Iterator[Tuple[str, Dict]]:
        """Yield ``(key, payload)`` pairs of one channel, in append order.

        Unparsable lines are skipped: they are truncated records left by
        interrupted writes (possibly newline-terminated by a later
        append), and the orchestrator re-executes any shard whose key is
        missing, so the store self-heals.  A *parsable* line that is not
        a keyed record, or has an unsupported format version, still
        raises :class:`CampaignError` naming the line -- that is a
        damaged or foreign file, not a crash artefact.

        Every call streams the file from its first byte, so a reader
        always sees the channel as it is on disk now.  A line without a
        trailing newline is a write still in flight (or a crash artefact
        the next append repairs) and is left unread.
        """
        path = self.channel_path(channel)
        if not path.exists():
            return
        with open(path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                if not raw.endswith(b"\n"):
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # interrupted write: the shard re-runs
                if not isinstance(record, dict):
                    raise CampaignError(f"{path}:{lineno}: record is not a JSON object")
                if record.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
                    raise CampaignError(
                        f"{path}:{lineno}: unsupported format "
                        f"version {record.get('format_version')!r}"
                    )
                if "key" not in record or (
                    "payload" not in record and "result" not in record
                ):
                    raise CampaignError(
                        f"{path}:{lineno}: record misses its key or payload"
                    )
                yield str(record["key"]), self._record_payload(record)

    @staticmethod
    def _record_payload(record: Dict) -> Dict:
        """The payload of one parsed record line.

        Batch records written before the channel API carried their
        content under ``result``; both spellings read back identically.
        """
        if "payload" in record:
            return record["payload"]
        return record["result"]

    def payloads_by_key(self, channel: str) -> Dict[str, Dict]:
        """All payloads of one channel, keyed by record key (last wins)."""
        return {key: payload for key, payload in self.iter_payloads(channel)}

    def iter_records(self) -> Iterator[Tuple[str, ExperimentResult]]:
        """Yield ``(shard key, batch result)`` pairs, in append order."""
        for key, payload in self.iter_payloads("results"):
            yield key, experiment_result_from_dict(payload)

    def results_by_key(self) -> Dict[str, ExperimentResult]:
        """All persisted results, keyed by shard key (last record wins)."""
        return {key: result for key, result in self.iter_records()}

    def completed_keys(self) -> Set[str]:
        """Keys of the shards already present in the store.

        This is what a resume reads: one scan of the ``results`` log
        that builds no :class:`~repro.experiments.runner.ExperimentResult`.
        """
        return {key for key, _ in self.iter_payloads("results")}

    def __contains__(self, key: str) -> bool:
        return key in self.completed_keys()

    def __len__(self) -> int:
        return len(self.completed_keys())

    # -- workload archive ---------------------------------------------- #
    def load_workload(self, key: str) -> List[PTG]:
        """Reload the archived PTGs of one shard."""
        path = self.workload_path(key)
        if not path.exists():
            raise CampaignError(f"no archived workload for shard {key!r}")
        return load_workload(str(path))

    # -- own-makespan cache -------------------------------------------- #
    def load_cache(self) -> OwnMakespanCache:
        """The persisted own-makespan cache (empty when absent)."""
        return OwnMakespanCache.load(str(self.cache_path))

    def save_cache(self, cache: OwnMakespanCache) -> None:
        """Persist the own-makespan cache."""
        cache.save(str(self.cache_path))

    # -- metadata ------------------------------------------------------ #
    def read_meta(self) -> Optional[Dict]:
        """The stored campaign metadata, or ``None`` for a fresh store."""
        if not self.meta_path.exists():
            return None
        with open(self.meta_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def write_meta(self, meta: Dict) -> None:
        """Record campaign metadata (signature + config summary)."""
        with open(self.meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
