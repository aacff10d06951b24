"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is the one declarative description of an
experiment: it selects the platform, the workload family and size, the
allocation procedure, the constraint strategies, the mapper and the
packing mode -- all **by registry name**, so the whole spec round-trips
through JSON and a single file fully determines a computation.

Three frozen dataclasses compose a scenario:

* :class:`~repro.experiments.workload.WorkloadSpec` -- which
  applications compete (family, count, seed, optional size cap), the
  same spec the experiment harness generates workloads from.
* :class:`PipelineSpec` -- how the two-step pipeline is assembled
  (allocator, mapper, packing, optional ``mu`` override for the WPS
  strategies).
* :class:`ScenarioSpec` -- platform + workload + pipeline + the
  strategy set to compare.

Every spec has ``to_dict`` / ``from_dict`` (JSON round-trip is
identity), actionable validation errors naming the registry's available
entries, and a stable :meth:`ScenarioSpec.content_hash` that
:mod:`repro.campaigns.shards` uses as the shard key -- two scenarios
share a hash exactly when they describe the same computation.

Examples
--------
>>> spec = ScenarioSpec.from_dict({
...     "platform": "lille",
...     "workload": {"family": "fft", "n_ptgs": 2},
...     "pipeline": {"allocator": "hcpa"},
...     "strategies": ["S", "ES"],
... })
>>> spec.pipeline.allocator
'hcpa'
>>> ScenarioSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.constraints.registry import STRATEGY_NAMES
from repro.exceptions import ConfigurationError
from repro.experiments.workload import WorkloadSpec
from repro.faults.spec import FaultSpec
from repro.obs.config import TelemetrySpec
from repro.scenarios.registry import ALLOCATORS, MAPPERS, PLATFORMS, STRATEGIES
from repro.service.spec import ServiceSpec
from repro.streaming.spec import ArrivalSpec
from repro.utils.digest import content_digest, platform_fingerprint
from repro.utils.validation import check_finite, check_known_keys

#: Version stamp of the spec serialisation format.
SPEC_FORMAT_VERSION = 1

#: Version stamp of the content-hash payload.  Shared with the campaign
#: shard keys (:data:`repro.campaigns.shards.SHARD_KEY_VERSION`): a
#: scenario's hash equals the key of the shard it expands to.
SPEC_HASH_VERSION = 2


@dataclass(frozen=True)
class PipelineSpec:
    """How the two-step pipeline is assembled, every component by name.

    Parameters
    ----------
    allocator:
        Name in :data:`~repro.scenarios.registry.ALLOCATORS`
        (paper default: ``scrap-max``).
    mapper:
        Name in :data:`~repro.scenarios.registry.MAPPERS`
        (paper default: ``ready-list``).
    packing:
        Whether the mapper may pack allocations down to fit earlier
        holes (the paper's mapping runs with packing on).
    mu:
        Optional override of the WPS weighting parameter, applied to
        every WPS strategy of the scenario; ``None`` uses the paper's
        per-family values.
    """

    allocator: str = "scrap-max"
    mapper: str = "ready-list"
    packing: bool = True
    mu: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate and canonicalise the field values."""
        object.__setattr__(self, "allocator", ALLOCATORS.canonical(self.allocator))
        object.__setattr__(self, "mapper", MAPPERS.canonical(self.mapper))
        if not isinstance(self.packing, bool):
            raise ConfigurationError(
                f"packing must be a boolean, got {self.packing!r}"
            )
        if self.mu is not None:
            mu = check_finite("mu", self.mu)
            if not 0.0 <= mu <= 1.0:
                raise ConfigurationError(f"mu must be in [0, 1], got {self.mu!r}")
            object.__setattr__(self, "mu", mu)

    def label(self) -> str:
        """Readable identifier (e.g. ``hcpa+ready-list,nopack,mu=0.5``).

        Used in progress reports and failure summaries so that shards
        differing only in their pipeline stay distinguishable.
        """
        text = f"{self.allocator}+{self.mapper}"
        if not self.packing:
            text += ",nopack"
        if self.mu is not None:
            text += f",mu={self.mu:g}"
        return text

    def to_dict(self) -> Dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "allocator": self.allocator,
            "mapper": self.mapper,
            "packing": self.packing,
            "mu": self.mu,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineSpec":
        """Build a spec from a plain dict; unknown keys raise."""
        check_known_keys(
            payload, ("allocator", "mapper", "packing", "mu"), "pipeline spec"
        )
        return cls(**payload)


def _normalise_strategies(
    value: Optional[Union[str, Sequence[str]]],
) -> Optional[Tuple[str, ...]]:
    """Canonicalise a strategy selection: a name, a comma list, or a sequence."""
    if value is None:
        return None
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    elif not isinstance(value, (list, tuple)):
        raise ConfigurationError(
            f"strategies must be a name, a comma-separated list or a list of "
            f"names, got {value!r}"
        )
    names = tuple(STRATEGIES.canonical(name) for name in value)
    if not names:
        raise ConfigurationError(
            f"strategies must name at least one strategy; available: "
            f"{STRATEGIES.names()}"
        )
    return names


@dataclass(frozen=True)
class ScenarioSpec:
    """The complete declarative description of one experiment.

    Every axis is selected by registry name, so the spec is fully
    serialisable and a JSON file determines the computation.  The
    *strategies* field may be ``None``, meaning the paper's strategy
    set for the workload family (the width-based strategies are
    dropped for Strassen workloads, as in the paper's Figure 5).
    """

    platform: str = "rennes"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    strategies: Optional[Tuple[str, ...]] = None
    arrivals: Optional[ArrivalSpec] = None
    telemetry: Optional[TelemetrySpec] = None
    service: Optional[ServiceSpec] = None
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        """Validate and canonicalise the field values."""
        object.__setattr__(self, "platform", PLATFORMS.canonical(self.platform))
        if not isinstance(self.workload, WorkloadSpec):
            raise ConfigurationError(
                f"workload must be a WorkloadSpec, got {type(self.workload).__name__}"
            )
        if not isinstance(self.pipeline, PipelineSpec):
            raise ConfigurationError(
                f"pipeline must be a PipelineSpec, got {type(self.pipeline).__name__}"
            )
        if self.arrivals is not None and not isinstance(self.arrivals, ArrivalSpec):
            raise ConfigurationError(
                f"arrivals must be an ArrivalSpec or None, got "
                f"{type(self.arrivals).__name__}"
            )
        if self.telemetry is not None and not isinstance(self.telemetry, TelemetrySpec):
            raise ConfigurationError(
                f"telemetry must be a TelemetrySpec or None, got "
                f"{type(self.telemetry).__name__}"
            )
        if self.service is not None and not isinstance(self.service, ServiceSpec):
            raise ConfigurationError(
                f"service must be a ServiceSpec or None, got "
                f"{type(self.service).__name__}"
            )
        if self.faults is not None and not isinstance(self.faults, FaultSpec):
            raise ConfigurationError(
                f"faults must be a FaultSpec or None, got "
                f"{type(self.faults).__name__}"
            )
        object.__setattr__(
            self, "strategies", _normalise_strategies(self.strategies)
        )

    @property
    def is_streaming(self) -> bool:
        """Whether the scenario describes an online arrival stream.

        Streaming scenarios run through
        :func:`repro.streaming.run.run_stream_scenario`; the ``workload``
        section is unused for them (the arrivals spec carries its own
        family / size / seed).
        """
        return self.arrivals is not None

    # ------------------------------------------------------------------ #
    # resolution helpers
    # ------------------------------------------------------------------ #
    def resolved_strategy_names(self) -> Tuple[str, ...]:
        """The strategy names the scenario compares.

        An explicit selection is returned as-is; the default (``None``)
        is the paper's set for the workload family, without the
        width-based strategies for Strassen workloads (all Strassen
        graphs share the same width, so proportioning over it is
        meaningless -- the paper's Figure 5 legend).
        """
        if self.strategies is not None:
            return self.strategies
        names = STRATEGY_NAMES
        if self.resolved_family() == "strassen":
            names = [n for n in names if "width" not in n]
        return tuple(names)

    def resolved_family(self) -> str:
        """The application family of the scenario's workload.

        Streaming scenarios carry it in their arrivals section, batch
        scenarios in their workload section.
        """
        if self.arrivals is not None:
            return self.arrivals.family
        return self.workload.family

    def label(self) -> str:
        """Readable identifier used in logs and progress reports."""
        if self.arrivals is not None:
            return f"{self.arrivals.label()} on {self.platform}"
        return f"{self.workload.label()} on {self.platform}"

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        payload = {
            "format_version": SPEC_FORMAT_VERSION,
            "platform": self.platform,
            "workload": self.workload.to_dict(),
            "pipeline": self.pipeline.to_dict(),
            "strategies": list(self.strategies) if self.strategies else None,
        }
        if self.arrivals is not None:
            payload["arrivals"] = self.arrivals.to_dict()
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.to_dict()
        if self.service is not None:
            payload["service"] = self.service.to_dict()
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "ScenarioSpec":
        """Build a spec from a plain dict (e.g. a parsed JSON file).

        Missing sections fall back to their defaults; unknown keys and
        unknown registry names raise a
        :class:`~repro.exceptions.ConfigurationError` naming the
        allowed keys / available entries.
        """
        check_known_keys(
            payload,
            (
                "format_version",
                "platform",
                "workload",
                "pipeline",
                "strategies",
                "arrivals",
                "telemetry",
                "service",
                "faults",
            ),
            "scenario spec",
        )
        version = payload.get("format_version", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported scenario spec format_version {version!r} "
                f"(this build reads version {SPEC_FORMAT_VERSION})"
            )
        kwargs: Dict = {}
        if "platform" in payload:
            kwargs["platform"] = payload["platform"]
        if "workload" in payload:
            kwargs["workload"] = WorkloadSpec.from_dict(payload["workload"] or {})
        if "pipeline" in payload:
            kwargs["pipeline"] = PipelineSpec.from_dict(payload["pipeline"] or {})
        if "strategies" in payload:
            kwargs["strategies"] = payload["strategies"]
        if payload.get("arrivals") is not None:
            kwargs["arrivals"] = ArrivalSpec.from_dict(payload["arrivals"])
        if payload.get("telemetry") is not None:
            telemetry = payload["telemetry"]
            # {"telemetry": true} is the shorthand for "all defaults on"
            if telemetry is True:
                telemetry = {}
            kwargs["telemetry"] = TelemetrySpec.from_dict(telemetry)
        if payload.get("service") is not None:
            service = payload["service"]
            # {"service": true} is the shorthand for "all defaults on"
            if service is True:
                service = {}
            kwargs["service"] = ServiceSpec.from_dict(service)
        if payload.get("faults") is not None:
            faults = payload["faults"]
            # {"faults": true} is the shorthand for "all defaults on"
            if faults is True:
                faults = {}
            kwargs["faults"] = FaultSpec.from_dict(faults)
        return cls(**kwargs)

    # ------------------------------------------------------------------ #
    # content hash
    # ------------------------------------------------------------------ #
    def content_hash(self) -> str:
        """Stable content-derived key of the scenario.

        The hash is a SHA-256 digest of a canonical payload covering the
        workload content, the *resolved* platform fingerprint (clusters,
        speeds, topology -- not just the name), the resolved strategy
        set and the pipeline.  It is independent of process, dict key
        order and platform object identity, and it equals the campaign
        shard key of the shard the scenario expands to, which is what
        makes spec-keyed stores resumable.
        """
        platform_obj = PLATFORMS.create(self.platform)
        return content_digest(
            scenario_hash_payload(
                family=self.workload.family,
                n_ptgs=self.workload.n_ptgs,
                seed=self.workload.seed,
                max_tasks=self.workload.max_tasks,
                platform_fp=platform_fingerprint(platform_obj),
                strategy_names=self.resolved_strategy_names(),
                pipeline=self.pipeline,
                arrivals=self.arrivals,
                telemetry=self.telemetry,
                service=self.service,
                faults=self.faults,
            )
        )


def scenario_hash_payload(
    family: str,
    n_ptgs: int,
    seed: int,
    max_tasks: Optional[int],
    platform_fp: str,
    strategy_names: Sequence[str],
    pipeline: PipelineSpec,
    arrivals: Optional[ArrivalSpec] = None,
    telemetry: Optional[TelemetrySpec] = None,
    service: Optional[ServiceSpec] = None,
    faults: Optional[FaultSpec] = None,
) -> Dict:
    """The canonical payload both spec hashes and shard keys digest.

    Kept as one shared function so
    :meth:`ScenarioSpec.content_hash` and
    :meth:`repro.campaigns.shards.ExperimentShard.key` can never drift
    apart: equal content produces equal keys on both paths.  The
    ``arrivals``, ``telemetry``, ``service`` and ``faults`` keys are
    only present when set, so the hashes of plain batch scenarios (and
    every pre-existing store) are unchanged.
    """
    payload = {
        "version": SPEC_HASH_VERSION,
        "workload": {
            "family": family,
            "n_ptgs": n_ptgs,
            "seed": seed,
            "max_tasks": max_tasks,
        },
        "platform": platform_fp,
        "strategies": list(strategy_names),
        "pipeline": {
            "allocator": pipeline.allocator,
            "mapper": pipeline.mapper,
            "packing": pipeline.packing,
            "mu": pipeline.mu,
        },
    }
    if arrivals is not None:
        payload["arrivals"] = arrivals.hash_payload()
    if telemetry is not None:
        payload["telemetry"] = telemetry.hash_payload()
    if service is not None:
        payload["service"] = service.hash_payload()
    if faults is not None:
        payload["faults"] = faults.hash_payload()
    return payload


def load_specs(payload: Union[Dict, List]) -> List[ScenarioSpec]:
    """Parse a JSON payload holding one spec or a list of specs.

    This is what ``repro-ptg run <spec.json>`` feeds a parsed file
    through: a single object yields a one-element list.
    """
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ConfigurationError(
            f"a scenario file must hold an object or a list of objects, "
            f"got {type(payload).__name__}"
        )
    return [ScenarioSpec.from_dict(entry) for entry in payload]
