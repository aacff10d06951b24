"""Declarative, serialisable description of an online arrival stream.

An :class:`ArrivalSpec` is the ``arrivals`` section of a
:class:`~repro.scenarios.spec.ScenarioSpec`: it selects the arrival
process by :data:`~repro.scenarios.registry.ARRIVALS` registry name, the
application family by :data:`~repro.scenarios.registry.FAMILIES` name,
and fixes the stream length, the seed and the multi-tenant labelling --
so a JSON file fully determines a streaming workload, exactly like the
offline workload section determines a batch one.

:func:`generate_arrivals` materialises the stream: the submission
instants come from the seeded process, the graphs from the same
deterministic workload generator the offline harness uses (equal seeds
produce bit-identical graphs), and tenants are assigned round-robin.

Examples
--------
>>> spec = ArrivalSpec.from_dict({"process": "poisson", "rate": 0.1,
...                               "n_arrivals": 4, "family": "fft"})
>>> spec.process, spec.n_arrivals
('poisson', 4)
>>> ArrivalSpec.from_dict(spec.to_dict()) == spec
True
>>> arrivals = generate_arrivals(spec)
>>> [a.ptg.n_tasks > 0 for a in arrivals]
[True, True, True, True]
>>> all(a.time <= b.time for a, b in zip(arrivals, arrivals[1:]))
True
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.scenarios.registry import ARRIVALS, FAMILIES
from repro.streaming.arrivals import ArrivalProcess
from repro.streaming.engine import Arrival
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_finite,
    check_int_at_least,
    check_known_keys,
    check_max_tasks,
)

#: Stream length used when a spec names neither ``n_arrivals`` nor a trace.
DEFAULT_N_ARRIVALS = 16

#: Keys an ``arrivals`` JSON section may carry.
_ARRIVAL_KEYS = (
    "process",
    "rate",
    "n_arrivals",
    "seed",
    "family",
    "max_tasks",
    "tenants",
    "burst",
    "dwell",
    "trace",
)


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative arrival stream: a process, a family, a size, a seed.

    Parameters
    ----------
    process:
        Name in :data:`~repro.scenarios.registry.ARRIVALS`
        (``poisson`` / ``mmpp`` / ``trace`` built in).
    rate:
        Mean arrival rate in applications per second (quiet-phase rate
        for ``mmpp``; unused by ``trace``).
    n_arrivals:
        Stream length; ``None`` means the trace length for ``trace``
        processes and :data:`DEFAULT_N_ARRIVALS` otherwise (the value is
        canonicalised to an integer, so hashing is stable).
    seed:
        Seed of both the submission instants and the generated graphs.
    family:
        Application family in
        :data:`~repro.scenarios.registry.FAMILIES`; each arrival draws
        the next application of the family's deterministic sequence.
    max_tasks:
        Optional cap on random-PTG sizes, as in the offline workloads.
    tenants:
        Number of tenants; arrival ``i`` is labelled
        ``tenant-{i mod tenants}`` (round-robin), feeding the per-tenant
        stall metrics.
    burst:
        Burst-phase rate multiplier of the ``mmpp`` process.
    dwell:
        Mean phase dwell time (seconds) of the ``mmpp`` process;
        ``None`` uses the process default.
    trace:
        Explicit submission instants for the ``trace`` process
        (:func:`repro.streaming.arrivals.load_trace` reads them from a
        file).
    """

    process: str = "poisson"
    rate: float = 1.0
    n_arrivals: Optional[int] = None
    seed: int = 0
    family: str = "random"
    max_tasks: Optional[int] = None
    tenants: int = 1
    burst: float = 4.0
    dwell: Optional[float] = None
    trace: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        """Validate and canonicalise the field values."""
        object.__setattr__(self, "process", ARRIVALS.canonical(self.process))
        object.__setattr__(self, "family", FAMILIES.canonical(self.family))
        # the seed feeds numpy's generators, which refuse negative seeds
        check_int_at_least("seed", self.seed, 0)
        rate = check_finite("rate", self.rate)
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate!r}")
        object.__setattr__(self, "rate", rate)
        burst = check_finite("burst", self.burst)
        if burst < 1:
            raise ConfigurationError(
                f"burst must be at least 1, got {self.burst!r}"
            )
        object.__setattr__(self, "burst", burst)
        if self.dwell is not None:
            dwell = check_finite("dwell", self.dwell)
            if dwell <= 0:
                raise ConfigurationError(
                    f"dwell must be positive, got {self.dwell!r}"
                )
            object.__setattr__(self, "dwell", dwell)
        if not isinstance(self.tenants, int) or self.tenants < 1:
            raise ConfigurationError(
                f"tenants must be a positive integer, got {self.tenants!r}"
            )
        check_max_tasks(self.max_tasks)
        if self.trace is not None:
            if isinstance(self.trace, (str, bytes, dict)) or not isinstance(
                self.trace, Iterable
            ):
                raise ConfigurationError(
                    f"trace must be a list of instants, got {self.trace!r}"
                )
            trace = tuple(
                check_finite(f"trace[{index}]", t) for index, t in enumerate(self.trace)
            )
            if not trace:
                raise ConfigurationError("a trace must hold at least one instant")
            object.__setattr__(self, "trace", trace)
        if self.process == "trace" and self.trace is None:
            raise ConfigurationError(
                "a 'trace' arrival process needs the trace field (e.g. loaded "
                "with repro.streaming.load_trace)"
            )
        n = self.n_arrivals
        if n is None:
            n = len(self.trace) if self.trace is not None else DEFAULT_N_ARRIVALS
        if not isinstance(n, int) or n < 1:
            raise ConfigurationError(
                f"n_arrivals must be a positive integer, got {self.n_arrivals!r}"
            )
        object.__setattr__(self, "n_arrivals", n)

    # ------------------------------------------------------------------ #
    # labels and serialisation
    # ------------------------------------------------------------------ #
    def label(self) -> str:
        """Readable identifier used in logs and result records."""
        return (
            f"{self.process}-x{self.n_arrivals}-rate{self.rate:g}-"
            f"{self.family}-seed{self.seed}"
        )

    def to_dict(self) -> Dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "process": self.process,
            "rate": self.rate,
            "n_arrivals": self.n_arrivals,
            "seed": self.seed,
            "family": self.family,
            "max_tasks": self.max_tasks,
            "tenants": self.tenants,
            "burst": self.burst,
            "dwell": self.dwell,
            "trace": list(self.trace) if self.trace is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ArrivalSpec":
        """Build a spec from a plain dict; unknown keys raise."""
        check_known_keys(payload, _ARRIVAL_KEYS, "arrivals spec")
        return cls(**payload)

    def hash_payload(self) -> Dict:
        """The canonical content this spec contributes to a scenario hash."""
        return self.to_dict()

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def to_workload_spec(self) -> WorkloadSpec:
        """The workload spec generating the stream's application graphs."""
        return WorkloadSpec(
            family=self.family,
            n_ptgs=self.n_arrivals,
            seed=self.seed,
            max_tasks=self.max_tasks,
        )


def build_process(spec: ArrivalSpec) -> ArrivalProcess:
    """Instantiate the arrival process an :class:`ArrivalSpec` names.

    Every factory registered on :data:`~repro.scenarios.registry.ARRIVALS`
    receives the uniform keyword set and picks what it needs.
    """
    return ARRIVALS.create(
        spec.process,
        rate=spec.rate,
        burst=spec.burst,
        dwell=spec.dwell,
        trace=spec.trace,
    )


def generate_arrivals(spec: ArrivalSpec) -> List[Arrival]:
    """Materialise the arrival stream a spec describes (deterministic).

    The submission instants come from the seeded process, the graphs
    from :func:`repro.experiments.workload.make_workload` under the same
    seed (bit-identical to an offline workload of equal family / size /
    seed), and tenants are assigned round-robin.
    """
    times = build_process(spec).times(spec.n_arrivals, ensure_rng(spec.seed))
    ptgs = make_workload(spec.to_workload_spec())
    return [
        Arrival(ptg, float(time), tenant=f"tenant-{index % spec.tenants}")
        for index, (ptg, time) in enumerate(zip(ptgs, times))
    ]
