"""Name-based plugin registries for every axis of a scenario.

The paper's two-step approach is modular by construction: any
constrained allocation procedure can be paired with any constraint
strategy and any concurrent mapping procedure, on any platform, against
any workload family.  This module makes every one of those axes
*name-addressable* through one generic :class:`Registry` type, so a
serialisable :class:`~repro.scenarios.spec.ScenarioSpec` can select all
of them by string and third parties can plug in their own entries:

* :data:`ALLOCATORS` -- ``cpa`` / ``hcpa`` / ``scrap`` / ``scrap-max``,
* :data:`MAPPERS` -- ``ready-list`` / ``global-order`` (both accept
  ``enable_packing``),
* :data:`STRATEGIES` -- the eight constraint strategies of the paper,
  folded in from :mod:`repro.constraints.registry` behind the same
  interface,
* :data:`PLATFORMS` -- the four Grid'5000 sites plus the composed
  multi-site testbed,
* :data:`FAMILIES` -- the ``random`` / ``fft`` / ``strassen`` / ``mixed``
  workload families,
* :data:`ARRIVALS` -- the ``poisson`` / ``mmpp`` / ``trace`` arrival
  processes of the online (streaming) scenarios,
* :data:`FAULTS` -- the ``none`` / ``single-node`` / ``rolling`` /
  ``correlated-cluster`` fault plans of the perturbed-platform
  scenarios.

Lookups are case-insensitive and an unknown name always raises a
:class:`~repro.exceptions.ConfigurationError` that lists the available
entries.

Examples
--------
>>> ALLOCATORS.names()
['cpa', 'hcpa', 'scrap', 'scrap-max']
>>> type(ALLOCATORS.create("scrap-max")).__name__
'ScrapMaxAllocator'
>>> "READY-LIST" in MAPPERS
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.allocation.cpa import CPAAllocator
from repro.allocation.hcpa import HCPAAllocator
from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator
from repro.constraints.registry import STRATEGY_NAMES, strategy
from repro.exceptions import ConfigurationError
from repro.experiments.workload import (
    APPLICATION_FAMILIES,
    WorkloadSpec,
    make_workload,
)
from repro.faults.timeline import (
    correlated_cluster_plan,
    none_plan,
    rolling_plan,
    single_node_plan,
)
from repro.mapping.global_order import GlobalOrderMapper
from repro.mapping.ready_list import ReadyListMapper
from repro.platform import grid5000
from repro.streaming.arrivals import mmpp_process, poisson_process, trace_process


@dataclass(frozen=True)
class RegistryEntry:
    """One named plugin: a factory plus a human-readable description."""

    name: str
    factory: Callable[..., Any]
    description: str = ""


class Registry:
    """A generic, case-insensitive, name-based plugin registry.

    Every pluggable axis of a scenario (allocators, mappers, strategies,
    platforms, workload families) is an instance of this class.  Third
    parties extend an axis by registering a factory under a new name --
    either directly or as a decorator::

        @PLATFORMS.register("my-lab", description="our local cluster")
        def _my_lab():
            return heterogeneous_platform((32, 64), (3.0, 4.0), name="my-lab")

    -- after which the name is valid anywhere a scenario selects that
    axis (spec files, the builder, the ``repro-ptg run`` CLI).
    """

    def __init__(self, kind: str) -> None:
        """Create an empty registry for entries of the given *kind* (e.g. ``"allocator"``)."""
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        description: str = "",
        replace: bool = False,
    ):
        """Register *factory* under *name*; usable directly or as a decorator.

        Parameters
        ----------
        name:
            The public name of the entry (looked up case-insensitively).
        factory:
            Callable building the entry.  When omitted, ``register``
            returns a decorator that registers the decorated callable.
        description:
            One-line description shown by ``repro-ptg list``.
        replace:
            Whether an existing entry of the same name may be replaced;
            accidental redefinition raises otherwise.
        """
        if factory is None:
            def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
                self.register(name, func, description=description, replace=replace)
                return func

            return decorator
        key = name.strip().lower()
        if not key:
            raise ConfigurationError(f"{self.kind} name must be a non-empty string")
        if key in self._entries and not replace:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered; pass replace=True "
                f"to override it"
            )
        self._entries[key] = RegistryEntry(
            name=name.strip(), factory=factory, description=description
        )
        return factory

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def canonical(self, name: str) -> str:
        """The registered spelling of *name*, raising on unknown names."""
        return self.entry(name).name

    def entry(self, name: str) -> RegistryEntry:
        """The :class:`RegistryEntry` called *name* (case-insensitive)."""
        key = str(name).strip().lower()
        try:
            return self._entries[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            ) from None

    def create(self, name: str, **kwargs) -> Any:
        """Instantiate the entry called *name* with keyword arguments."""
        return self.entry(name).factory(**kwargs)

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return [entry.name for entry in self._entries.values()]

    def describe(self) -> Dict[str, str]:
        """Mapping of registered name to description, in registration order."""
        return {entry.name: entry.description for entry in self._entries.values()}

    def __contains__(self, name: str) -> bool:
        """Whether *name* (case-insensitive) is registered."""
        return str(name).strip().lower() in self._entries

    def __iter__(self) -> Iterator[str]:
        """Iterate over the registered names."""
        return iter(self.names())

    def __len__(self) -> int:
        """Number of registered entries."""
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, entries={self.names()})"


# ---------------------------------------------------------------------- #
# built-in registries
# ---------------------------------------------------------------------- #

#: Allocation procedures, by the names used in the paper.
ALLOCATORS = Registry("allocator")
ALLOCATORS.register(
    "cpa", CPAAllocator,
    description="Critical Path and Area balance (homogeneous single cluster)",
)
ALLOCATORS.register(
    "hcpa", HCPAAllocator,
    description="Heterogeneous CPA on the reference cluster",
)
ALLOCATORS.register(
    "scrap", ScrapAllocator,
    description="constrained allocation, global area constraint",
)
ALLOCATORS.register(
    "scrap-max", ScrapMaxAllocator,
    description="constrained allocation, per-precedence-level constraint (paper default)",
)

#: Concurrent mapping procedures.  Both accept ``enable_packing``.
MAPPERS = Registry("mapper")
MAPPERS.register(
    "ready-list", ReadyListMapper,
    description="event-driven list scheduling over the ready tasks (paper default)",
)
MAPPERS.register(
    "global-order", GlobalOrderMapper,
    description="single global bottom-level ordering (the Figure 1 baseline)",
)

#: Constraint strategies, folded in from :mod:`repro.constraints.registry`.
STRATEGIES = Registry("strategy")

_STRATEGY_DESCRIPTIONS = {
    "S": "selfish: every application takes the whole platform",
    "ES": "equal share: beta = 1 / n applications",
    "PS-cp": "share proportional to critical path length",
    "PS-width": "share proportional to maximal width",
    "PS-work": "share proportional to total work",
    "WPS-cp": "weighted proportional share over critical path (mu-damped)",
    "WPS-width": "weighted proportional share over width (mu-damped)",
    "WPS-work": "weighted proportional share over work (mu-damped)",
}


def _register_strategies() -> None:
    """Fold the constraint-strategy registry into the scenario interface."""
    def make_factory(strategy_name: str) -> Callable[..., Any]:
        def factory(mu: Optional[float] = None, family: str = "default"):
            return strategy(strategy_name, mu=mu, family=family)

        return factory

    for name in STRATEGY_NAMES:
        STRATEGIES.register(
            name, make_factory(name), description=_STRATEGY_DESCRIPTIONS[name]
        )


_register_strategies()

#: Target platforms: the paper's four Grid'5000 sites plus the composed
#: multi-site testbed.  Factories take no arguments.
PLATFORMS = Registry("platform")
PLATFORMS.register(
    "lille", grid5000.lille,
    description="Grid'5000 Lille subset: 3 clusters, 99 processors",
)
PLATFORMS.register(
    "nancy", grid5000.nancy,
    description="Grid'5000 Nancy subset: 2 clusters, 167 processors",
)
PLATFORMS.register(
    "rennes", grid5000.rennes,
    description="Grid'5000 Rennes subset: 3 clusters, 229 processors",
)
PLATFORMS.register(
    "sophia", grid5000.sophia,
    description="Grid'5000 Sophia subset: 3 clusters, 180 processors",
)
PLATFORMS.register(
    "grid5000", grid5000.composed,
    description="all four sites composed: 11 clusters, 675 processors",
)

#: Workload families.  Factories take ``(n_ptgs, seed, max_tasks)`` and
#: return the generated PTGs, delegating to
#: :func:`repro.experiments.workload.make_workload` so scenario-built
#: workloads are bit-identical to harness-built ones.
FAMILIES = Registry("workload family")

_FAMILY_DESCRIPTIONS = {
    "random": "layered random DAGs (10/20/50 tasks, paper shape parameters)",
    "fft": "FFT PTGs of 4/8/16 points (15/39/95 tasks)",
    "strassen": "Strassen PTGs (25 tasks, identical shape)",
    "mixed": "applications cycle through random / FFT / Strassen",
}


def _register_families() -> None:
    """Expose every application family as a workload factory."""
    def make_factory(family: str) -> Callable[..., Any]:
        def factory(n_ptgs: int = 4, seed: int = 0, max_tasks: Optional[int] = None):
            return make_workload(
                WorkloadSpec(family=family, n_ptgs=n_ptgs, seed=seed, max_tasks=max_tasks)
            )

        return factory

    for name in APPLICATION_FAMILIES:
        FAMILIES.register(
            name, make_factory(name), description=_FAMILY_DESCRIPTIONS[name]
        )


_register_families()

#: Arrival-time processes for online (streaming) scenarios.  Factories
#: follow the uniform keyword contract of
#: :mod:`repro.streaming.arrivals`: they accept ``rate`` / ``burst`` /
#: ``dwell`` / ``trace`` keywords and ignore what they do not need, so
#: an :class:`~repro.streaming.spec.ArrivalSpec` can instantiate any of
#: them (built-in or third-party) the same way.
ARRIVALS = Registry("arrival process")
ARRIVALS.register(
    "poisson", poisson_process,
    description="memoryless arrivals at a constant rate",
)
ARRIVALS.register(
    "mmpp", mmpp_process,
    description="bursty two-phase Markov-modulated Poisson process",
)
ARRIVALS.register(
    "trace", trace_process,
    description="replay of explicit submission instants (trace-driven)",
)

#: Fault plans for perturbed-platform scenarios.  Factories follow the
#: uniform keyword contract of :mod:`repro.faults.timeline`: they accept
#: ``platform`` / ``rng`` / ``count`` / ``start`` / ``duration`` /
#: ``gap`` / ``nodes`` / ``bandwidth`` / ``slowdown`` keywords and
#: ignore what they do not need, so a
#: :class:`~repro.faults.spec.FaultSpec` can instantiate any of them
#: (built-in or third-party) the same way.
FAULTS = Registry("fault plan")
FAULTS.register(
    "none", none_plan,
    description="no faults: the static platform of the paper (default)",
)
FAULTS.register(
    "single-node", single_node_plan,
    description="independent node crashes on randomly drawn clusters",
)
FAULTS.register(
    "rolling", rolling_plan,
    description="staggered outage sweeping the clusters in declaration order",
)
FAULTS.register(
    "correlated-cluster", correlated_cluster_plan,
    description="whole-cluster outages (a failed switch takes every node)",
)

#: Campaign executors: how :func:`repro.campaigns.orchestrator.orchestrate`
#: fans shards out.  Factories are lazy (:mod:`repro.exec.procpool`
#: imports the campaign pool, which imports the scenario layer) and
#: forward keyword arguments to the executor constructor.
EXECUTORS = Registry("executor")


def _process_pool_executor(**kwargs: Any) -> Any:
    """Build a :class:`repro.exec.procpool.ProcessPoolExecutor` (lazy import)."""
    from repro.exec.procpool import ProcessPoolExecutor

    return ProcessPoolExecutor(**kwargs)


def _serial_executor(**kwargs: Any) -> Any:
    """``serial`` is an alias: a process pool whose default is one job.

    One job runs every shard inline, in submission order.  A policy
    that sets ``jobs`` still wins, as for any process pool.
    """
    kwargs.setdefault("jobs", 1)
    return _process_pool_executor(**kwargs)


EXECUTORS.register(
    "serial", _serial_executor,
    description="alias of process-pool with one job: every shard inline",
)
EXECUTORS.register(
    "process-pool", _process_pool_executor,
    description="multiprocessing fan-out across pool workers (default)",
)

#: All built-in registries, keyed by the plural nouns the CLI uses
#: (``repro-ptg list allocators`` etc.).
REGISTRIES: Dict[str, Registry] = {
    "allocators": ALLOCATORS,
    "mappers": MAPPERS,
    "strategies": STRATEGIES,
    "platforms": PLATFORMS,
    "families": FAMILIES,
    "arrivals": ARRIVALS,
    "faults": FAULTS,
    "executors": EXECUTORS,
}
