"""Figure 2: influence of the ``mu`` parameter of the WPS strategies.

"Figure 2 shows the evolution of the unfairness (left) and the average
makespan (right) when the mu parameter of the WPS-work strategy varies
from 0 to 1 for random PTGs."  Unfairness decreases with ``mu`` (closer to
an equal share) while the average makespan increases; the paper picks the
knee at ``mu = 0.7`` for WPS-work.

This module reproduces that sweep for any characteristic (work, cp,
width) and any application family, which also regenerates the data the
paper used to select ``mu = 0.5`` for WPS-cp and 0.3 / 0.5 for WPS-width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform.grid5000 import all_sites
from repro.platform.multicluster import MultiClusterPlatform

#: The mu values shown on the x axis of Figure 2.
PAPER_MU_VALUES = (0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0)

#: The characteristics a WPS strategy can proportion over.
WPS_CHARACTERISTICS = ("work", "cp", "width")


def _wps_strategy_name(characteristic: str) -> str:
    """The registry name of the WPS strategy over *characteristic*."""
    if characteristic not in WPS_CHARACTERISTICS:
        raise ConfigurationError(
            f"unknown characteristic {characteristic!r}; "
            f"available: {list(WPS_CHARACTERISTICS)}"
        )
    return f"WPS-{characteristic}"


@dataclass
class MuSweepResult:
    """Results of the mu sweep.

    ``unfairness[n_ptgs]`` and ``average_makespan[n_ptgs]`` are lists
    aligned with :attr:`mu_values` (one series per number of concurrent
    PTGs, exactly like the curves of Figure 2).
    """

    characteristic: str
    family: str
    mu_values: List[float]
    ptg_counts: List[int]
    unfairness: Dict[int, List[float]] = field(default_factory=dict)
    average_makespan: Dict[int, List[float]] = field(default_factory=dict)

    def recommended_mu(self, n_ptgs: Optional[int] = None) -> float:
        """The knee of the trade-off curve.

        Returns the smallest ``mu`` whose unfairness is within 10% of the
        best (largest-``mu``) unfairness -- i.e. "for mu >= knee there is
        only a little gain in terms of unfairness reduction while the
        average makespan increases more quickly".
        """
        counts = [n_ptgs] if n_ptgs is not None else self.ptg_counts
        knees: List[float] = []
        for count in counts:
            series = self.unfairness[count]
            best = min(series)
            span = max(series) - best
            threshold = best + 0.1 * span if span > 0 else best
            for mu, value in zip(self.mu_values, series):
                if value <= threshold:
                    knees.append(mu)
                    break
        return sum(knees) / len(knees)


def run_mu_sweep(
    characteristic: str = "work",
    family: str = "random",
    mu_values: Sequence[float] = PAPER_MU_VALUES,
    ptg_counts: Sequence[int] = (2, 4, 6, 8, 10),
    workloads_per_point: int = 25,
    platforms: Optional[Sequence[MultiClusterPlatform]] = None,
    base_seed: int = 0,
    max_tasks: Optional[int] = None,
) -> MuSweepResult:
    """Reproduce Figure 2 for one characteristic and one application family.

    Every part resolves through the scenario plugin registries: each
    ``mu``'s WPS strategy is selected by registry name, its ``mu``
    checked by a :class:`repro.scenarios.spec.PipelineSpec`, and each
    (workload, platform) cell instantiates one pipeline with
    :func:`repro.scenarios.run.build_pipeline`, whose allocator is
    primed with every ``mu``'s betas: one allocation pass per graph
    serves the cell's whole sweep.  The declarative counterpart (for
    registered platforms) is :func:`mu_sweep_scenarios`.
    """
    # Imported lazily: repro.scenarios sits on the workload layer of
    # this package, so a top-level import here would be circular.
    from repro.experiments.runner import (
        compute_own_makespans,
        prime_experiment,
        run_experiment,
    )
    from repro.scenarios.registry import STRATEGIES
    from repro.scenarios.run import build_pipeline
    from repro.scenarios.spec import PipelineSpec

    strategy_name = _wps_strategy_name(characteristic)
    if not mu_values:
        raise ConfigurationError("mu_values must not be empty")
    if workloads_per_point < 1:
        raise ConfigurationError("workloads_per_point must be positive")
    platforms = list(platforms) if platforms else all_sites()
    result = MuSweepResult(
        characteristic=characteristic,
        family=family,
        mu_values=list(mu_values),
        ptg_counts=list(ptg_counts),
    )
    strategies = [
        STRATEGIES.create(strategy_name, mu=PipelineSpec(mu=float(mu)).mu, family=family)
        for mu in mu_values
    ]
    for count in ptg_counts:
        # one value per (workload, platform) cell and mu, each mu's in
        # cell order; the workload, its reference makespans and one
        # allocator primed with every mu's betas are shared by the cell's
        # experiments, so the sweep isolates the effect of mu
        unfairness_values: List[List[float]] = [[] for _ in mu_values]
        makespan_values: List[List[float]] = [[] for _ in mu_values]
        for index in range(workloads_per_point):
            spec = WorkloadSpec(
                family=family,
                n_ptgs=count,
                seed=base_seed + 1000 * count + index,
                max_tasks=max_tasks,
            )
            ptgs = make_workload(spec)
            for platform in platforms:
                own = compute_own_makespans(ptgs, platform)
                allocator, mapper = build_pipeline(PipelineSpec())
                prime_experiment(ptgs, platform, strategies, allocator)
                for position, strategy in enumerate(strategies):
                    experiment = run_experiment(
                        ptgs, platform, [strategy], workload_label=spec.label(),
                        own_makespans=own, allocator=allocator, mapper=mapper,
                    )
                    outcome = experiment.outcomes[strategy.name]
                    unfairness_values[position].append(outcome.unfairness)
                    makespan_values[position].append(outcome.mean_application_makespan)
        result.unfairness[count] = [sum(v) / len(v) for v in unfairness_values]
        result.average_makespan[count] = [sum(v) / len(v) for v in makespan_values]
    return result


def mu_sweep_scenarios(
    characteristic: str = "work",
    family: str = "random",
    mu_values: Sequence[float] = PAPER_MU_VALUES,
    ptg_counts: Sequence[int] = (2, 4, 6, 8, 10),
    workloads_per_point: int = 25,
    platform_names: Sequence[str] = ("lille", "nancy", "rennes", "sophia"),
    base_seed: int = 0,
    max_tasks: Optional[int] = None,
) -> List:
    """The mu sweep as a canned list of declarative scenario specs.

    One single-strategy :class:`repro.scenarios.spec.ScenarioSpec` per
    (PTG count, workload index, platform, mu) cell, in sweep order --
    the serialisable counterpart of :func:`run_mu_sweep` for
    registry-addressable platforms.  Because each cell's ``mu`` is part
    of its pipeline, every cell has a distinct content hash and a
    spec-keyed store resumes the sweep mid-way.
    """
    from repro.scenarios.builder import Scenario

    strategy_name = _wps_strategy_name(characteristic)
    specs: List = []
    for count in ptg_counts:
        for index in range(workloads_per_point):
            builder = Scenario.on("rennes").workload(
                family=family,
                n_ptgs=count,
                seed=base_seed + 1000 * count + index,
                max_tasks=max_tasks,
            ).pipeline(strategy=strategy_name)
            specs.extend(
                builder.sweep(platform=list(platform_names), mu=list(mu_values))
            )
    return specs
