"""Declarative, serialisable description of a platform fault plan.

A :class:`FaultSpec` is the optional ``faults`` section of a
:class:`~repro.scenarios.spec.ScenarioSpec`: it selects a fault plan by
:data:`~repro.scenarios.registry.FAULTS` registry name and fixes the
seed and the plan knobs, so a JSON file fully determines *when and
where the platform fails* -- exactly like the ``arrivals`` section
determines the workload stream.  Scenario content hashes are extended
by the section only when it is present, so every pre-existing store key
stays valid.

:func:`compile_timeline` materialises the plan against a concrete
platform: the same spec and platform always compile to a bit-identical
:class:`~repro.faults.timeline.FaultTimeline`.

Examples
--------
>>> spec = FaultSpec.from_dict({"plan": "rolling", "count": 2,
...                             "start": 30.0, "duration": 60.0})
>>> spec.plan, spec.count
('rolling', 2)
>>> FaultSpec.from_dict(spec.to_dict()) == spec
True
>>> from repro.platform import grid5000
>>> timeline = compile_timeline(spec, grid5000.rennes())
>>> len(timeline.windows)
2
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ConfigurationError
from repro.faults.timeline import FaultTimeline
from repro.scenarios.registry import FAULTS
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_finite, check_int_at_least, check_known_keys

#: Keys a ``faults`` JSON section may carry.
_FAULT_KEYS = (
    "plan",
    "seed",
    "count",
    "start",
    "duration",
    "gap",
    "nodes",
    "bandwidth",
    "slowdown",
)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault plan: a plan name, a seed and the plan knobs.

    Parameters
    ----------
    plan:
        Name in :data:`~repro.scenarios.registry.FAULTS`
        (``none`` / ``single-node`` / ``rolling`` /
        ``correlated-cluster`` built in).
    seed:
        Seed of the plan's random draws (which clusters and nodes fail);
        equal seeds compile bit-identical timelines.
    count:
        Number of fault windows the plan injects.
    start:
        Instant (seconds) the first window opens.
    duration:
        Length (seconds) of each window.
    gap:
        Delay (seconds) between consecutive window starts.
    nodes:
        Processors taken down per window (plans covering whole clusters
        ignore it).
    bandwidth:
        Optional transfer-time multiplier (>= 1) in effect during each
        window, platform-wide; ``None`` leaves the network untouched.
    slowdown:
        Optional compute-duration multiplier (>= 1) in effect during
        each window on the failing cluster; ``None`` leaves compute
        untouched.
    """

    plan: str = "none"
    seed: int = 0
    count: int = 1
    start: float = 60.0
    duration: float = 120.0
    gap: float = 240.0
    nodes: int = 1
    bandwidth: Optional[float] = None
    slowdown: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate and canonicalise the field values."""
        object.__setattr__(self, "plan", FAULTS.canonical(self.plan))
        # the seed feeds numpy's generators, which refuse negative seeds
        check_int_at_least("seed", self.seed, 0)
        if not isinstance(self.count, int) or self.count < 1:
            raise ConfigurationError(
                f"count must be a positive integer, got {self.count!r}"
            )
        if not isinstance(self.nodes, int) or self.nodes < 1:
            raise ConfigurationError(
                f"nodes must be a positive integer, got {self.nodes!r}"
            )
        start = check_finite("start", self.start)
        if start < 0:
            raise ConfigurationError(f"start must be non-negative, got {self.start!r}")
        object.__setattr__(self, "start", start)
        duration = check_finite("duration", self.duration)
        if duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration!r}"
            )
        object.__setattr__(self, "duration", duration)
        gap = check_finite("gap", self.gap)
        if gap <= 0:
            raise ConfigurationError(f"gap must be positive, got {self.gap!r}")
        object.__setattr__(self, "gap", gap)
        for name in ("bandwidth", "slowdown"):
            value = getattr(self, name)
            if value is None:
                continue
            value = check_finite(name, value)
            if value < 1.0:
                raise ConfigurationError(
                    f"{name} must be a factor >= 1 or null, got {value!r}"
                )
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # labels and serialisation
    # ------------------------------------------------------------------ #
    def label(self) -> str:
        """Readable identifier used in logs and result records."""
        return f"{self.plan}-x{self.count}-seed{self.seed}"

    def to_dict(self) -> Dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "plan": self.plan,
            "seed": self.seed,
            "count": self.count,
            "start": self.start,
            "duration": self.duration,
            "gap": self.gap,
            "nodes": self.nodes,
            "bandwidth": self.bandwidth,
            "slowdown": self.slowdown,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "FaultSpec":
        """Build a spec from a plain dict; unknown keys raise."""
        check_known_keys(payload, _FAULT_KEYS, "faults spec")
        return cls(**payload)

    def hash_payload(self) -> Dict:
        """The canonical content this spec contributes to a scenario hash."""
        return self.to_dict()


def compile_timeline(spec: FaultSpec, platform) -> FaultTimeline:
    """Compile a :class:`FaultSpec` against a concrete platform.

    Every factory registered on :data:`~repro.scenarios.registry.FAULTS`
    receives the uniform keyword set (plus the seeded generator) and
    picks what it needs; the compilation is deterministic -- the same
    spec and platform always produce an equal
    :class:`~repro.faults.timeline.FaultTimeline`.
    """
    return FAULTS.create(
        spec.plan,
        platform=platform,
        rng=ensure_rng(spec.seed),
        count=spec.count,
        start=spec.start,
        duration=spec.duration,
        gap=spec.gap,
        nodes=spec.nodes,
        bandwidth=spec.bandwidth,
        slowdown=spec.slowdown,
    )
