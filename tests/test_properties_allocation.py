"""Property-based tests (hypothesis): the fused allocation loop equals the oracle.

:func:`repro.allocation.fastloop.run_fused_loop` keeps incremental
bottom levels, reuses the critical path after a freeze and evaluates the
built-in constraints inline.  These properties drive it over random, FFT
and Strassen graphs, equal-cost layered graphs (every branch of the
critical-path walk a tie) and chains (no branch at all), on all five
platforms, for any ``beta`` in ``(0, 1]``, under the level, area, no and
a custom constraint, with and without the efficiency guard and the
balance stop, and compare the allocation and
:class:`~repro.allocation.iterative.IterationStats` with the oracle loop
frozen in ``tests/oracles/allocation.py`` using ``==``.  A second
property primes each built-in procedure with a shuffled list of betas
(one pass, forked where the betas part) and holds every primed result to
the oracle run under its own beta.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.allocation.cpa import CPAAllocator
from repro.allocation.hcpa import HCPAAllocator
from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator

from repro.allocation.iterative import (
    AreaConstraint,
    ConstraintCheck,
    LevelConstraint,
    NoConstraint,
    run_iterative_allocation,
)
from repro.allocation.reference import ReferenceCluster
from repro.dag.fft import generate_fft_ptg
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.dag.graph import PTG
from repro.dag.strassen import generate_strassen_ptg
from repro.dag.task import Task
from repro.platform import grid5000
from repro.platform.builder import single_cluster_platform

from tests.oracles.allocation import run_reference_allocation

#: The four Grid'5000 sites and the composed platform, built once.
PLATFORMS = [grid5000.site(name) for name in grid5000.site_names()] + [
    grid5000.composed()
]


class CapAt(ConstraintCheck):
    """A custom check: no task may grow past *limit* processors."""

    def __init__(self, limit: int, stop_on_violation: bool) -> None:
        self.limit = limit
        self.stop_on_violation = stop_on_violation

    def violated(self, allocation, task):
        """True once the incremented task holds more than the limit."""
        return allocation.processors(task.task_id) > self.limit


def layered_ptg(width: int, depth: int) -> PTG:
    """Equal-cost levels, each fully connected to the next: every branch ties."""
    graph = PTG(f"layered-{width}x{depth}")
    previous = []
    for level in range(depth):
        current = [level * width + i for i in range(width)]
        for tid in current:
            graph.add_task(Task(tid, 4e10, 0.1))
            for src in previous:
                graph.add_edge(src, tid, 1e6)
        previous = current
    graph.ensure_single_entry_exit()
    return graph


def chain_ptg(seed: int, length: int) -> PTG:
    """A chain of seeded costs: the critical-path walk never branches."""
    graph = PTG(f"chain-{length}")
    for tid in range(length):
        graph.add_task(Task(tid, 1e9 * (1 + (seed * 7 + tid * 13) % 97),
                            ((seed + tid) % 5) / 20))
        if tid:
            graph.add_edge(tid - 1, tid, 1e6)
    return graph


def build_graph(kind: str, seed: int, size: int) -> PTG:
    """One graph of *kind*; *size* picks its task count within the family."""
    if kind == "random":
        graph = generate_random_ptg(seed, RandomPTGConfig(n_tasks=size))
        graph.ensure_single_entry_exit()
        return graph
    if kind == "fft":
        return generate_fft_ptg(n_points=(2, 4, 8)[size % 3], rng=seed)
    if kind == "strassen":
        return generate_strassen_ptg(rng=seed)
    if kind == "layered":
        return layered_ptg(width=1 + size % 4, depth=1 + size % 5)
    return chain_ptg(seed, length=1 + size % 8)


def make_constraint(kind: str, beta: float, power: float, limit: int):
    """A fresh constraint check of *kind* (each loop gets its own)."""
    if kind == "level":
        return LevelConstraint(beta, power)
    if kind == "area":
        return AreaConstraint(beta, power)
    if kind == "none":
        return NoConstraint()
    return CapAt(limit, stop_on_violation=kind == "custom-stop")


# graph kind and stop rule are parametrized rather than drawn, so every
# combination gets its own examples under the derandomized CI profile
@pytest.mark.parametrize("balance", [True, False], ids=["balance", "no-balance"])
@pytest.mark.parametrize("kind", ["random", "fft", "strassen", "layered", "chain"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    size=st.integers(min_value=1, max_value=30),
    platform=st.sampled_from(PLATFORMS),
    beta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    constraint=st.sampled_from(["level", "area", "none", "custom-stop", "custom-freeze"]),
    limit=st.integers(min_value=1, max_value=8),
    threshold=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.9)),
)
def test_fused_loop_equals_the_oracle(
    kind, balance, seed, size, platform, beta, constraint, limit, threshold
):
    """Allocation and IterationStats equal the oracle's, bit for bit."""
    graph = build_graph(kind, seed, size)
    reference = ReferenceCluster.of(platform)
    power = platform.total_power_gflops
    runs = [
        loop(
            graph, platform, reference, beta,
            make_constraint(constraint, beta, power, limit),
            use_balance_stop=balance, efficiency_threshold=threshold,
        )
        for loop in (run_iterative_allocation, run_reference_allocation)
    ]
    (fast, fast_stats), (oracle, oracle_stats) = runs
    assert fast.as_dict() == oracle.as_dict()
    assert fast_stats == oracle_stats


#: One-cluster platforms for CPA, which refuses any other.
ONE_CLUSTER = [
    single_cluster_platform(num_processors=n, speed_gflops=speed)
    for n, speed in ((8, 2.5), (24, 3.0), (64, 4.2))
]

PROCEDURES = {
    "scrap-max": ScrapMaxAllocator,
    "scrap": ScrapAllocator,
    "hcpa": HCPAAllocator,
    "cpa": CPAAllocator,
}


@st.composite
def beta_lists(draw):
    """Betas with repeats, the ends of the range and float neighbours.

    Next to a drawn beta sits its twin and the float just below it,
    whose limit ``beta * P + 1e-12`` mostly rounds to the same value;
    the list is shuffled, so the pass must sort it itself.
    """
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    betas = draw(st.lists(
        st.one_of(unit, st.sampled_from([1.0, 1e-3, 0.5])), min_size=1, max_size=2
    ))
    base = draw(unit)
    betas += [base, base, math.nextafter(base, 0.0)]
    return draw(st.permutations([b for b in betas if b > 0.0]))


@pytest.mark.parametrize("balance", [True, False], ids=["balance", "no-balance"])
@pytest.mark.parametrize("procedure", list(PROCEDURES))
@settings(max_examples=5, deadline=None)
@given(
    kind=st.sampled_from(["random", "fft", "strassen", "layered", "chain"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    size=st.integers(min_value=1, max_value=20),
    platform_index=st.integers(min_value=0, max_value=len(PLATFORMS) - 1),
    betas=beta_lists(),
    threshold=st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.9)),
)
def test_primed_betas_equal_the_oracle(
    procedure, balance, kind, seed, size, platform_index, betas, threshold
):
    """Every primed beta answers with its own oracle run, bit for bit."""
    # an 8-point FFT keeps the oracle busy for seconds per beta without
    # the balance stop; the single-beta property above covers it
    if kind == "fft":
        graph = generate_fft_ptg(n_points=(2, 4)[size % 2], rng=seed)
    else:
        graph = build_graph(kind, seed, size)
    platforms = ONE_CLUSTER if procedure == "cpa" else PLATFORMS
    platform = platforms[platform_index % len(platforms)]
    allocator = PROCEDURES[procedure](efficiency_threshold=threshold)
    allocator.use_balance_stop = balance
    allocator.prime(graph, platform, betas)
    reference = ReferenceCluster.of(platform)
    power = platform.total_power_gflops
    oracles = {
        beta: run_reference_allocation(
            graph, platform, reference, beta,
            allocator.make_constraint(beta, power),
            use_balance_stop=balance, efficiency_threshold=threshold,
        )
        for beta in set(betas)
    }
    with obs.capture() as session:
        for beta in betas:
            allocation = allocator.allocate(graph, platform, beta=beta)
            oracle, oracle_stats = oracles[beta]
            assert allocation.as_dict() == oracle.as_dict()
            assert allocator.last_stats == oracle_stats
    # every answer came from the primed memo, none from a fresh loop
    assert session.registry.counters["allocation.memo_hits"].value == len(betas)
    assert "allocation.iterations" not in session.registry.counters
