"""Golden-allocation suite: the array-compiled core is bit-identical.

The fast allocation core (:class:`repro.allocation.state.AllocationState`
driving :func:`repro.allocation.iterative.run_iterative_allocation`) is a
pure performance refactor: for every procedure of the CPA family -- CPA,
HCPA (with and without the over-allocation guard), SCRAP and SCRAP-MAX --
it must produce exactly the same :class:`~repro.allocation.base.Allocation`
contents **and** :class:`~repro.allocation.iterative.IterationStats` as
the pre-refactor loop frozen in :mod:`tests.oracles.allocation`.

Every comparison below is **exact** (``==`` on the processor dicts and on
the stats dataclass, no tolerance): the optimized arithmetic reproduces
the scalar IEEE-754 operation order (fold-left sums included), so any
drift is a regression.  Coverage follows the paper's workload shapes: a
seeded batch of ~50 random PTGs (the fig2/fig3 family) plus the FFT
(fig4) and Strassen (fig5) families, across several betas and platforms.

The allocator classes put an exact memo in front of the loop, and no
generated workload repeats a graph, so :class:`TestMemoGolden` builds
the repeats itself: a copy that changes anything the loop reads must
miss, and one that changes nothing it reads must hit, each equal to the
oracle for its own inputs.
"""

import dataclasses

import pytest

from repro import obs
from repro.allocation import iterative
from repro.allocation.cpa import CPAAllocator
from repro.allocation.hcpa import HCPAAllocator
from repro.allocation.iterative import (
    AreaConstraint,
    ConstraintCheck,
    LevelConstraint,
    NoConstraint,
    run_iterative_allocation,
)
from repro.allocation.reference import ReferenceCluster
from repro.allocation.scrap import ScrapAllocator, ScrapMaxAllocator
from repro.dag.arrays import SMALL_GRAPH_CUTOFF
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.dag.graph import PTG
from repro.exceptions import AllocationError
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform import grid5000
from repro.platform.builder import single_cluster_platform

from tests.conftest import memo_hits
from tests.oracles.allocation import run_reference_allocation

BETAS = (0.25, 0.6, 1.0)

#: (label, constraint factory, extra run kwargs) -- the four procedures.
PROCEDURES = (
    ("CPA", lambda beta, power: NoConstraint(), {}),
    ("HCPA-guarded", lambda beta, power: NoConstraint(), {"efficiency_threshold": 0.5}),
    ("SCRAP", AreaConstraint, {}),
    ("SCRAP-MAX", LevelConstraint, {}),
)


def assert_identical_runs(ptg, platform, beta, constraint_factory, **kwargs):
    """Fast and reference loop agree exactly on allocation and stats."""
    reference = ReferenceCluster.of(platform)
    power = platform.total_power_gflops
    fast_alloc, fast_stats = run_iterative_allocation(
        ptg, platform, reference, beta, constraint_factory(beta, power), **kwargs
    )
    ref_alloc, ref_stats = run_reference_allocation(
        ptg, platform, reference, beta, constraint_factory(beta, power), **kwargs
    )
    assert fast_alloc.as_dict() == ref_alloc.as_dict(), (ptg.name, beta)
    assert fast_stats == ref_stats, (ptg.name, beta)
    assert fast_alloc.beta == ref_alloc.beta


@pytest.fixture(scope="module", params=["lille", "sophia"])
def platform(request):
    return grid5000.site(request.param)


class TestGoldenRandomBatch:
    """~50 seeded random PTGs x 4 procedures x several betas."""

    @pytest.mark.parametrize("seed", range(16))
    @pytest.mark.parametrize("name,constraint,kwargs", PROCEDURES, ids=lambda p: None)
    def test_small_random_bit_identical(self, seed, name, constraint, kwargs):
        # 3 PTGs of 10/20 tasks per seed (48 graphs overall), alternating
        # between two platforms to keep the suite fast
        batch_platform = grid5000.site("lille" if seed % 2 else "sophia")
        ptgs = make_workload(
            WorkloadSpec(family="random", n_ptgs=3, seed=seed, max_tasks=20)
        )
        for ptg in ptgs:
            for beta in (0.25, 1.0):
                assert_identical_runs(ptg, batch_platform, beta, constraint, **kwargs)

    @pytest.mark.parametrize("seed", [100, 101])
    def test_full_size_random_bit_identical(self, platform, seed):
        # full paper sizes (10/20/50 tasks) on every procedure
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=3, seed=seed))
        for ptg in ptgs:
            for _, constraint, kwargs in PROCEDURES:
                assert_identical_runs(ptg, platform, 0.6, constraint, **kwargs)

    def test_large_graph_vectorized_dp_bit_identical(self):
        # a graph past SMALL_GRAPH_CUTOFF exercises the vectorized
        # level-batched DP branch of AllocationState.bottom_levels, which
        # the paper-sized workloads above never reach
        platform = grid5000.lille()
        ptg = generate_random_ptg(42, RandomPTGConfig(n_tasks=550))
        ptg.ensure_single_entry_exit()
        assert ptg.n_tasks >= SMALL_GRAPH_CUTOFF, "must take the vectorized DP path"
        for constraint in (
            lambda beta, power: NoConstraint(),
            AreaConstraint,
            LevelConstraint,
        ):
            assert_identical_runs(ptg, platform, 0.5, constraint)


class TestGoldenFamilies:
    """The structured fig4/fig5 application families."""

    @pytest.mark.parametrize("family", ["fft", "strassen"])
    @pytest.mark.parametrize("name,constraint,kwargs", PROCEDURES, ids=lambda p: None)
    def test_family_bit_identical(self, family, name, constraint, kwargs):
        family_platform = grid5000.site("lille" if family == "fft" else "sophia")
        ptgs = make_workload(WorkloadSpec(family=family, n_ptgs=2, seed=3))
        for ptg in ptgs:
            for beta in (0.3, 1.0):
                assert_identical_runs(ptg, family_platform, beta, constraint, **kwargs)


class TestGoldenAllocators:
    """The public allocator classes ride the fast loop and stay golden."""

    def test_cpa_single_cluster(self):
        platform = single_cluster_platform(32, 4.0)
        reference = ReferenceCluster.of(platform)
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=2, seed=5))
        for ptg in ptgs:
            fast = CPAAllocator().allocate(ptg, platform)
            ref_alloc, _ = run_reference_allocation(
                ptg, platform, reference, 1.0, NoConstraint()
            )
            assert fast.as_dict() == ref_alloc.as_dict()

    @pytest.mark.parametrize("threshold", [0.0, 0.5])
    def test_hcpa(self, platform, threshold):
        reference = ReferenceCluster.of(platform)
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=2, seed=6))
        for ptg in ptgs:
            fast = HCPAAllocator(efficiency_threshold=threshold).allocate(ptg, platform)
            ref_alloc, _ = run_reference_allocation(
                ptg, platform, reference, 1.0, NoConstraint(),
                efficiency_threshold=threshold,
            )
            assert fast.as_dict() == ref_alloc.as_dict()

    @pytest.mark.parametrize("allocator_cls,constraint", [
        (ScrapAllocator, AreaConstraint),
        (ScrapMaxAllocator, LevelConstraint),
    ], ids=["scrap", "scrap-max"])
    def test_scrap_variants(self, platform, allocator_cls, constraint):
        reference = ReferenceCluster.of(platform)
        ptgs = make_workload(WorkloadSpec(family="random", n_ptgs=2, seed=7))
        for ptg in ptgs:
            for beta in (0.3, 1.0):
                allocator = allocator_cls()
                fast = allocator.allocate(ptg, platform, beta=beta)
                ref_alloc, ref_stats = run_reference_allocation(
                    ptg, platform, reference, beta,
                    constraint(beta, platform.total_power_gflops),
                )
                assert fast.as_dict() == ref_alloc.as_dict()
                assert allocator.last_stats == ref_stats


class TestGoldenCustomConstraint:
    """Custom ConstraintCheck subclasses run through the fused loop too."""

    class _CapAtFour(ConstraintCheck):
        def __init__(self, stop_on_violation):
            self.stop_on_violation = stop_on_violation

        def violated(self, allocation, task):
            """Reject any task that tries to grow past four processors."""
            return allocation.processors(task.task_id) > 4

    @pytest.mark.parametrize(
        "stop_on_violation", [True, False], ids=["stop", "freeze"]
    )
    def test_custom_constraint_bit_identical(self, platform, stop_on_violation):
        ptg = make_workload(WorkloadSpec(family="random", n_ptgs=1, seed=11))[0]
        reference = ReferenceCluster.of(platform)
        fast_alloc, fast_stats = run_iterative_allocation(
            ptg, platform, reference, 1.0, self._CapAtFour(stop_on_violation)
        )
        ref_alloc, ref_stats = run_reference_allocation(
            ptg, platform, reference, 1.0, self._CapAtFour(stop_on_violation)
        )
        assert fast_alloc.as_dict() == ref_alloc.as_dict()
        assert fast_stats == ref_stats
        assert max(fast_alloc.as_dict().values()) <= 4
        assert fast_stats.stopped_by_constraint == stop_on_violation


def rebuilt(ptg, name, tasks=None, edges=None):
    """A renamed graph from *ptg*'s (or the given) tasks and edges."""
    return PTG(name, tasks=tasks or ptg.tasks(), edges=edges or ptg.edges())


def with_task(ptg, name, **change):
    """A renamed copy whose first real task has *change* applied."""
    target = ptg.real_tasks()[0].task_id
    return rebuilt(ptg, name, tasks=[
        dataclasses.replace(t, **change) if t.task_id == target else t
        for t in ptg.tasks()
    ])


def with_extra_edge(ptg, name):
    """A renamed copy with one more edge (acyclic: it follows topological order)."""
    order = ptg.topological_order()
    for i, src in enumerate(order[1:-1], start=1):
        for dst in order[i + 1 : -1]:
            if dst not in ptg.successors(src):
                return rebuilt(ptg, name, edges=ptg.edges() + [(src, dst, 1e6)])
    raise AssertionError(f"{ptg.name} has no free edge slot")


class TestMemoGolden:
    """Only a copy that changes nothing the loop reads hits the memo."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_workload(
            WorkloadSpec(family="random", n_ptgs=1, seed=21, max_tasks=20)
        )[0]

    @staticmethod
    def oracle(allocator, ptg, platform, beta, **kwargs):
        """The oracle loop under *allocator*'s constraint on these inputs."""
        return run_reference_allocation(
            ptg, platform, ReferenceCluster.of(platform), beta,
            allocator.make_constraint(beta, platform.total_power_gflops), **kwargs
        )

    @classmethod
    def assert_oracle(cls, allocator, allocation, platform, beta, **kwargs):
        """The result and ``last_stats`` equal the oracle's on these inputs."""
        ref_alloc, ref_stats = cls.oracle(
            allocator, allocation.ptg, platform, beta, **kwargs
        )
        assert allocation.as_dict() == ref_alloc.as_dict()
        assert allocator.last_stats == ref_stats

    @pytest.mark.parametrize("variant", [
        "alpha", "flops", "extra-edge", "beta", "beta-hcpa", "beta-cpa",
        "platform", "efficiency_threshold",
    ])
    def test_changed_input_misses_and_equals_its_oracle(self, graph, variant):
        platform, beta, threshold = grid5000.site("nancy"), 0.6, 0.0
        allocator = ScrapMaxAllocator()
        if variant == "beta-hcpa":
            allocator = HCPAAllocator()
        elif variant == "beta-cpa":
            allocator = CPAAllocator()
            platform = single_cluster_platform(num_processors=24, speed_gflops=3.0)
        if variant.startswith("beta"):
            # CPA and HCPA read beta too, through the balance stop over
            # max(1, beta * N_ref): a beta-free memo key would be wrong
            assert (
                self.oracle(allocator, graph, platform, beta)[0].as_dict()
                != self.oracle(allocator, graph, platform, 0.25)[0].as_dict()
            )
        allocator.allocate(graph, platform, beta=beta)
        name = f"{graph.name}-{variant}"
        task = graph.real_tasks()[0]
        copy = graph.copy(name=name)
        if variant == "alpha":
            copy = with_task(graph, name, alpha=task.alpha / 2)
        elif variant == "flops":
            copy = with_task(graph, name, flops=task.flops * 2)
        elif variant == "extra-edge":
            copy = with_extra_edge(graph, name)
        elif variant.startswith("beta"):
            beta = 0.25
        elif variant == "platform":
            platform = grid5000.site("lille")
        else:
            threshold = allocator.efficiency_threshold = 0.5
        with obs.capture() as session:
            allocation = allocator.allocate(copy, platform, beta=beta)
        assert memo_hits(session) == 0
        assert allocation.ptg is copy
        self.assert_oracle(
            allocator, allocation, platform, beta, efficiency_threshold=threshold
        )

    def test_edge_data_sizes_are_not_part_of_the_key(self, graph):
        platform = grid5000.site("nancy")
        allocator = ScrapMaxAllocator()
        allocator.allocate(graph, platform, beta=0.6)
        heavier = rebuilt(graph, f"{graph.name}-data", edges=[
            (src, dst, 2.0 * data + 1.0) for src, dst, data in graph.edges()
        ])
        with obs.capture() as session:
            allocation = allocator.allocate(heavier, platform, beta=0.6)
        assert memo_hits(session) == 1
        assert allocation.ptg is heavier
        self.assert_oracle(allocator, allocation, platform, 0.6)

    def test_results_are_isolated_from_the_memo(self, graph):
        platform = grid5000.site("nancy")
        allocator = ScrapMaxAllocator()
        first = allocator.allocate(graph, platform, beta=0.6)
        expected = first.as_dict()
        allocator.last_stats.iterations = -1  # the stats a miss returned
        second = allocator.allocate(graph.copy(name="second"), platform, beta=0.6)
        allocator.last_stats.iterations = -1  # the stats a hit returned
        for result in (first, second):
            for tid in expected:
                result.set_processors(tid, 1)
        third = allocator.allocate(graph.copy(name="third"), platform, beta=0.6)
        assert third.as_dict() == expected
        self.assert_oracle(allocator, third, platform, 0.6)

    def test_capacity_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(iterative, "MEMO_CAPACITY", 2)
        platform = grid5000.site("nancy")
        g1, g2, g3 = make_workload(
            WorkloadSpec(family="random", n_ptgs=3, seed=22, max_tasks=10)
        )
        allocator = ScrapMaxAllocator()
        copies = iter(range(100))

        def hits(graph):
            copy = graph.copy(name=f"{graph.name}-copy-{next(copies)}")
            with obs.capture() as session:
                allocator.allocate(copy, platform, beta=0.6)
            return memo_hits(session) == 1

        allocator.allocate(g1, platform, beta=0.6)
        allocator.allocate(g2, platform, beta=0.6)
        assert hits(g1)  # g1 becomes the most recently used
        allocator.allocate(g3, platform, beta=0.6)  # evicts g2, not g1
        assert hits(g3) and hits(g1)
        assert not hits(g2)

    def test_a_hit_keeps_every_check(self, graph):
        platform = grid5000.site("nancy")
        allocator = ScrapMaxAllocator()
        allocator.allocate(graph, platform, beta=0.6)
        copy = graph.copy(name="checked")
        with pytest.raises(AllocationError, match="beta must be in"):
            allocator.allocate(copy, platform, beta=1.5)
        allocator.efficiency_threshold = 1.5
        with pytest.raises(AllocationError, match="efficiency_threshold"):
            allocator.allocate(copy, platform, beta=0.6)
        cpa = CPAAllocator()
        single = single_cluster_platform(num_processors=24, speed_gflops=3.0)
        cpa.allocate(graph, single)
        with pytest.raises(AllocationError, match="single-cluster"):
            cpa.allocate(copy, platform)
