"""Tests for the shared iterative allocation machinery."""

import pytest

from repro import obs
from repro.allocation.base import Allocation
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
from repro.dag.graph import PTG
from repro.exceptions import AllocationError
from repro.experiments.workload import WorkloadSpec, make_workload
from repro.platform import grid5000

from tests.conftest import make_chain_ptg, make_fork_join_ptg, memo_hits
from tests.oracles.allocation import run_reference_allocation


class TestConstraintChecks:
    def test_no_constraint_never_violated(self, small_platform, chain_ptg):
        ref = ReferenceCluster.of(small_platform)
        alloc = Allocation(chain_ptg, ref)
        check = NoConstraint()
        assert not check.violated(alloc, chain_ptg.task(0))

    def test_area_constraint_detects_violation(self, small_platform, chain_ptg):
        ref = ReferenceCluster.of(small_platform)
        alloc = Allocation(chain_ptg, ref, beta=0.05)
        check = AreaConstraint(0.05, small_platform.total_power_gflops)
        # push one task to a huge allocation: average power explodes
        alloc.set_processors(0, ref.size)
        assert check.violated(alloc, chain_ptg.task(0))

    def test_level_constraint_detects_violation(self, small_platform, fork_join_ptg):
        ref = ReferenceCluster.of(small_platform)
        alloc = Allocation(fork_join_ptg, ref, beta=0.1)
        check = LevelConstraint(0.1, small_platform.total_power_gflops)
        # the middle level holds 5 tasks; give one of them a lot
        middle_task = fork_join_ptg.task(1)
        alloc.set_processors(1, ref.size // 2)
        assert check.violated(alloc, middle_task)

    def test_level_constraint_other_level_unaffected(self, small_platform, fork_join_ptg):
        ref = ReferenceCluster.of(small_platform)
        alloc = Allocation(fork_join_ptg, ref, beta=0.5)
        check = LevelConstraint(0.5, small_platform.total_power_gflops)
        alloc.set_processors(1, 4)
        # the entry task's level only holds the entry task
        assert not check.violated(alloc, fork_join_ptg.task(0))

    @pytest.mark.parametrize("cls", [AreaConstraint, LevelConstraint])
    def test_invalid_parameters(self, cls):
        with pytest.raises(AllocationError):
            cls(0.0, 100.0)
        with pytest.raises(AllocationError):
            cls(0.5, 0.0)


class TestIterativeLoop:
    def test_allocations_grow_from_one(self, small_platform):
        ptg = make_chain_ptg(n=3, flops=50e9, alpha=0.05)
        ref = ReferenceCluster.of(small_platform)
        alloc, stats = run_iterative_allocation(
            ptg, small_platform, ref, beta=1.0, constraint=NoConstraint()
        )
        assert stats.increments > 0
        assert any(alloc.processors(t.task_id) > 1 for t in ptg.tasks())

    def test_lower_beta_means_smaller_allocations(self, small_platform):
        ptg = make_fork_join_ptg(width=4, flops=50e9, alpha=0.05)
        ref = ReferenceCluster.of(small_platform)
        big, _ = run_iterative_allocation(
            ptg, small_platform, ref, beta=1.0,
            constraint=LevelConstraint(1.0, small_platform.total_power_gflops),
        )
        small, _ = run_iterative_allocation(
            ptg, small_platform, ref, beta=0.1,
            constraint=LevelConstraint(0.1, small_platform.total_power_gflops),
        )
        assert sum(small.as_dict().values()) <= sum(big.as_dict().values())

    def test_allocation_never_exceeds_cap(self, small_platform):
        ptg = make_chain_ptg(n=2, flops=500e9, alpha=0.0)
        ref = ReferenceCluster.of(small_platform)
        alloc, _ = run_iterative_allocation(
            ptg, small_platform, ref, beta=1.0, constraint=NoConstraint()
        )
        cap = ref.max_allocation(small_platform)
        assert all(p <= cap for p in alloc.as_dict().values())

    def test_invalid_beta(self, small_platform, chain_ptg):
        ref = ReferenceCluster.of(small_platform)
        with pytest.raises(AllocationError):
            run_iterative_allocation(
                ptg=chain_ptg, platform=small_platform, reference=ref,
                beta=0.0, constraint=NoConstraint(),
            )

    def test_invalid_efficiency_threshold(self, small_platform, chain_ptg):
        ref = ReferenceCluster.of(small_platform)
        with pytest.raises(AllocationError):
            run_iterative_allocation(
                ptg=chain_ptg, platform=small_platform, reference=ref,
                beta=1.0, constraint=NoConstraint(), efficiency_threshold=1.5,
            )

    def test_efficiency_threshold_limits_growth(self, small_platform):
        ptg = make_chain_ptg(n=2, flops=500e9, alpha=0.25)
        ref = ReferenceCluster.of(small_platform)
        unguarded, _ = run_iterative_allocation(
            ptg, small_platform, ref, beta=1.0, constraint=NoConstraint(),
            efficiency_threshold=0.0,
        )
        guarded, _ = run_iterative_allocation(
            ptg, small_platform, ref, beta=1.0, constraint=NoConstraint(),
            efficiency_threshold=0.5,
        )
        assert max(guarded.as_dict().values()) <= max(unguarded.as_dict().values())
        # with alpha = 0.25, efficiency >= 0.5 caps the allocation at
        # p <= (1 + alpha) / alpha = 5
        assert max(guarded.as_dict().values()) <= 5

    def test_stats_report_stopping_reason(self, small_platform):
        ptg = make_chain_ptg(n=3, flops=50e9, alpha=0.05)
        ref = ReferenceCluster.of(small_platform)
        _, stats = run_iterative_allocation(
            ptg, small_platform, ref, beta=1.0, constraint=NoConstraint()
        )
        assert (
            stats.stopped_by_balance
            or stats.stopped_by_saturation
            or stats.stopped_by_constraint
        )

    def test_synthetic_tasks_keep_one_processor(self, small_platform):
        ptg = make_fork_join_ptg(width=3, flops=50e9, alpha=0.05)
        # force synthetic entry/exit by adding parallel entries
        from repro.dag.task import Task

        ptg.add_task(Task(100, flops=50e9, alpha=0.05, data_elements=4e6))
        ptg.add_edge(100, ptg.n_tasks - 2)  # connect into the graph
        ptg.ensure_single_entry_exit()
        ref = ReferenceCluster.of(small_platform)
        alloc, _ = run_iterative_allocation(
            ptg, small_platform, ref, beta=1.0, constraint=NoConstraint()
        )
        for task in ptg.tasks():
            if task.is_synthetic:
                assert alloc.processors(task.task_id) == 1


def assert_oracle(allocator, allocation, platform, beta):
    """*allocation* and the allocator's ``last_stats`` equal the oracle's run."""
    oracle, oracle_stats = run_reference_allocation(
        allocation.ptg, platform, ReferenceCluster.of(platform), beta,
        allocator.make_constraint(beta, platform.total_power_gflops),
        use_balance_stop=allocator.use_balance_stop,
        efficiency_threshold=allocator.efficiency_threshold,
    )
    assert allocation.as_dict() == oracle.as_dict()
    assert allocator.last_stats == oracle_stats


class CappedScrapMax(ScrapMaxAllocator):
    """SCRAP-MAX under a custom check: no task past four processors."""

    class _Check(ConstraintCheck):
        stop_on_violation = False

        def violated(self, allocation, task):
            return allocation.processors(task.task_id) > 4

    def make_constraint(self, beta, platform_power_gflops):
        """The custom check, whatever the beta."""
        return self._Check()


class TestPrime:
    """``prime`` fills the memo with what ``allocate`` would compute, and raises alike."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_workload(
            WorkloadSpec(family="random", n_ptgs=1, seed=23, max_tasks=20)
        )[0]

    @staticmethod
    def passes(session):
        """The ``allocation.iterate`` spans of one capture, as label dicts."""
        return [s.labels for s in session.spans if s.name == "allocation.iterate"]

    def test_one_pass_serves_every_beta(self, graph):
        platform = grid5000.site("nancy")
        allocator = ScrapMaxAllocator()
        betas = [1.0, 0.05, 0.3, 0.05, 0.6]
        with obs.capture() as session:
            allocator.prime(graph, platform, betas)
        (labels,) = self.passes(session)
        assert labels["betas"] == "4"  # the repeated 0.05 runs once
        assert int(labels["forks"]) >= 1
        with obs.capture() as session:
            for beta in betas:
                allocation = allocator.allocate(graph, platform, beta=beta)
                assert_oracle(allocator, allocation, platform, beta)
        assert memo_hits(session) == len(betas)
        assert not self.passes(session)

    def test_memoised_betas_are_skipped(self, graph):
        platform = grid5000.site("nancy")
        allocator = ScrapMaxAllocator()
        allocator.allocate(graph, platform, beta=0.6)
        with obs.capture() as session:
            allocator.prime(graph.copy(name="again"), platform, [0.6])
        assert not self.passes(session)
        with obs.capture() as session:
            allocator.prime(graph, platform, [0.6, 0.25])
        assert [labels["betas"] for labels in self.passes(session)] == ["1"]

    def test_custom_checks_run_one_pass_per_beta(self, graph):
        platform = grid5000.site("nancy")
        allocator = CappedScrapMax()
        with obs.capture() as session:
            allocator.prime(graph, platform, [0.3, 0.6])
        assert [labels["betas"] for labels in self.passes(session)] == ["1", "1"]
        for beta in (0.3, 0.6):
            allocation = allocator.allocate(graph, platform, beta=beta)
            assert_oracle(allocator, allocation, platform, beta)

    def test_raises_what_allocate_raises(self, graph):
        platform = grid5000.site("nancy")
        for allocator in (ScrapMaxAllocator(), HCPAAllocator(), ScrapAllocator()):
            for beta in (0.0, 1.5):
                with pytest.raises(AllocationError) as primed:
                    allocator.prime(graph, platform, [0.5, beta])
                with pytest.raises(AllocationError) as allocated:
                    allocator.allocate(graph, platform, beta=beta)
                assert str(primed.value) == str(allocated.value)
        with pytest.raises(AllocationError, match="single-cluster"):
            CPAAllocator().prime(graph, platform, [0.5])
        hollow = PTG("hollow")
        with pytest.raises(Exception) as primed:
            ScrapMaxAllocator().prime(hollow, platform, [0.5])
        with pytest.raises(Exception) as allocated:
            ScrapMaxAllocator().allocate(hollow, platform, beta=0.5)
        assert type(primed.value) is type(allocated.value)
        assert str(primed.value) == str(allocated.value)
