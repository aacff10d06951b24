"""Workload generation for the experimental campaign.

The paper evaluates three application families:

* **random** -- layered DAGs of 10, 20 or 50 tasks with the width /
  regularity / density / jump parameters of Section 2,
* **fft** -- FFT PTGs of 4, 8 or 16 points (15 / 39 / 95 tasks),
* **strassen** -- Strassen PTGs (25 tasks, identical shape).

A fourth family, **mixed**, goes beyond the paper: the applications of
one batch cycle through random / FFT / Strassen, which exercises the
fairness strategies on heterogeneous competitor sets.

"We generate 25 random combinations for each number of concurrent PTGs
(2, 4, 6, 8 and 10).  As we target four different platforms, we thus have
100 different runs for each scenario."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.dag.fft import paper_fft_workload
from repro.dag.generator import generate_random_workload, RandomPTGConfig
from repro.dag.graph import PTG
from repro.dag.strassen import paper_strassen_workload
from repro.exceptions import ConfigurationError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_max_tasks

#: Families recognised by :func:`make_workload`.
APPLICATION_FAMILIES = ("random", "fft", "strassen", "mixed")

#: Family cycle of the ``mixed`` workload family: application ``i`` of a
#: mixed workload is drawn from ``MIXED_CYCLE[i % 3]``, so the batch
#: combines all three of the paper's application shapes.
MIXED_CYCLE = ("random", "fft", "strassen")

#: Numbers of concurrent PTGs used in the paper's figures.
PAPER_PTG_COUNTS = (2, 4, 6, 8, 10)

#: Number of random workload combinations per PTG count in the paper.
PAPER_WORKLOADS_PER_POINT = 25


def _plugin_families():
    """The family plugin registry, or ``None`` while it is bootstrapping.

    Imported lazily because :mod:`repro.scenarios.registry` imports this
    module to build its built-in entries; once that import completes,
    the registry is the authority on which families exist (including
    third-party ones registered through the plugin API).
    """
    try:
        from repro.scenarios.registry import FAMILIES
    except ImportError:  # pragma: no cover - only during bootstrap
        return None
    return FAMILIES


@dataclass(frozen=True)
class WorkloadSpec:
    """Description of one workload: a family, a size and a seed."""

    family: str = "random"
    n_ptgs: int = 4
    seed: int = 0
    #: Optional cap on the task count of random PTGs (smaller graphs make
    #: the laptop-scale benchmark campaign faster without changing the
    #: qualitative comparisons).
    max_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in APPLICATION_FAMILIES:
            families = _plugin_families()
            if families is None or self.family not in families:
                available = list(families.names()) if families is not None \
                    else list(APPLICATION_FAMILIES)
                raise ConfigurationError(
                    f"unknown application family {self.family!r}; "
                    f"available: {available}"
                )
        if self.n_ptgs < 1:
            raise ConfigurationError(f"n_ptgs must be positive, got {self.n_ptgs}")
        check_max_tasks(self.max_tasks)

    def label(self) -> str:
        """Readable identifier used in logs and result records."""
        return f"{self.family}-x{self.n_ptgs}-seed{self.seed}"


def _random_configs(max_tasks: Optional[int]) -> Optional[List[RandomPTGConfig]]:
    """Configs for random PTGs under an optional task-count cap (``None``: paper grid)."""
    if max_tasks is None:
        return None
    counts = [n for n in (10, 20, 50) if n <= max_tasks] or [max_tasks]
    return [RandomPTGConfig(n_tasks=n) for n in counts]


def _mixed_workload(rng, spec: WorkloadSpec) -> List[PTG]:
    """Generate a mixed workload: applications cycle through :data:`MIXED_CYCLE`."""
    ptgs: List[PTG] = []
    for index in range(spec.n_ptgs):
        family = MIXED_CYCLE[index % len(MIXED_CYCLE)]
        prefix = f"{spec.family}{spec.seed}-{index}"
        if family == "random":
            ptgs.extend(
                generate_random_workload(
                    rng, n_ptgs=1,
                    configs=_random_configs(spec.max_tasks),
                    name_prefix=prefix,
                )
            )
        elif family == "fft":
            ptgs.extend(paper_fft_workload(rng, n_ptgs=1, name_prefix=prefix))
        else:
            ptgs.extend(paper_strassen_workload(rng, n_ptgs=1, name_prefix=prefix))
    return ptgs


def make_workload(spec: WorkloadSpec) -> List[PTG]:
    """Generate the PTGs described by *spec* (deterministic in the seed).

    The four built-in families are generated directly; any other family
    is dispatched to the :data:`repro.scenarios.registry.FAMILIES`
    plugin registry, so third-party families work everywhere a workload
    spec does (scenarios, campaigns, worker processes -- provided the
    plugin is registered in the executing process).
    """
    rng = ensure_rng(spec.seed)
    prefix = f"{spec.family}{spec.seed}"
    if spec.family == "random":
        return generate_random_workload(
            rng, n_ptgs=spec.n_ptgs,
            configs=_random_configs(spec.max_tasks),
            name_prefix=prefix,
        )
    if spec.family == "fft":
        return paper_fft_workload(rng, n_ptgs=spec.n_ptgs, name_prefix=prefix)
    if spec.family == "strassen":
        return paper_strassen_workload(rng, n_ptgs=spec.n_ptgs, name_prefix=prefix)
    if spec.family == "mixed":
        return _mixed_workload(rng, spec)
    families = _plugin_families()
    if families is None:
        raise ConfigurationError(f"unknown application family {spec.family!r}")
    return families.create(
        spec.family, n_ptgs=spec.n_ptgs, seed=spec.seed, max_tasks=spec.max_tasks
    )


def paper_workload_specs(
    family: str,
    ptg_counts: Sequence[int] = PAPER_PTG_COUNTS,
    workloads_per_point: int = PAPER_WORKLOADS_PER_POINT,
    base_seed: int = 0,
    max_tasks: Optional[int] = None,
) -> List[WorkloadSpec]:
    """The workload grid of one figure of the paper.

    One :class:`WorkloadSpec` per (PTG count, workload index); seeds are
    derived deterministically from *base_seed* so campaigns are
    reproducible.
    """
    if workloads_per_point < 1:
        raise ConfigurationError("workloads_per_point must be positive")
    specs: List[WorkloadSpec] = []
    for count in ptg_counts:
        for index in range(workloads_per_point):
            specs.append(
                WorkloadSpec(
                    family=family,
                    n_ptgs=count,
                    seed=base_seed + 1000 * count + index,
                    max_tasks=max_tasks,
                )
            )
    return specs
