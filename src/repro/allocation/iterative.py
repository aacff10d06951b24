"""Shared machinery of the CPA-family iterative allocation procedures.

CPA, HCPA, SCRAP and SCRAP-MAX all follow the same scheme:

1. start from an allocation of **one (reference) processor per task**;
2. repeatedly pick the task on the **critical path** that benefits the
   most from one extra processor (largest reduction of ``T(v,p)/p``) and
   give it that processor;
3. stop when the allocation is *balanced* -- the critical path length
   ``T_CP`` no longer exceeds the average area ``T_A`` -- or when the next
   increment would **violate the resource constraint**.

The procedures only differ in the resource-constraint check, encapsulated
by :class:`ConstraintCheck` implementations:

* no check at all (CPA / HCPA, which rely only on the balance criterion),
* a global area check (SCRAP),
* a per-precedence-level power check (SCRAP-MAX).

Performance
-----------
:func:`run_iterative_allocation` is the allocation hot path: it runs up
to ``n_tasks * cap`` iterations, each of which needs the critical path
under the current allocation, the total area, the per-candidate marginal
gains and (for SCRAP / SCRAP-MAX) a constraint re-evaluation after the
tentative increment.  The loop therefore works on an
:class:`~repro.allocation.state.AllocationState`: durations, areas,
marginal gains and the efficiency guard are precomputed table lookups,
the bottom levels are propagated incrementally over the shared
:class:`~repro.dag.arrays.DagArrays` topology, the resource sums are
incremental, and the best candidate is selected with a single scan that
preserves the exact ``(gain, -task_id)`` tie-break (see
:mod:`repro.allocation.fastloop`).  The produced allocations and
:class:`IterationStats` are **bit-identical** to the dict-based oracle
frozen in ``tests/oracles/allocation.py`` (asserted by
``tests/test_allocation_golden.py``).  Custom :class:`ConstraintCheck`
subclasses run through the same loop: their :meth:`ConstraintCheck.violated`
is called on a materialised :class:`~repro.allocation.base.Allocation`
after each tentative increment.

Memo
----
The four allocator classes share one ``allocate``
(:class:`IterativeAllocator`) that keeps an exact memo in front of the
loop, so a recurring job resubmitted under a new name at a ``beta`` it
already had skips the loop, bit-identical by construction.
:meth:`IterativeAllocator.prime` fills that memo for many betas of one
graph with a single forked pass (see :mod:`repro.allocation.fastloop`):
an experiment allocates each graph once for every strategy and for the
own-makespan reference.  :func:`run_iterative_allocation` stays
memo-free, so custom checks (which may read anything in the graph,
names included) are never memoised.
"""

from __future__ import annotations

import abc
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.allocation.base import Allocation, AllocationProcedure
from repro.allocation.fastloop import MemberResult, run_fused_loop
from repro.allocation.reference import ReferenceCluster
from repro.allocation.state import AllocationState
from repro.dag.graph import PTG
from repro.dag.task import Task
from repro.exceptions import AllocationError
from repro.obs import meters, trace
from repro.platform.multicluster import MultiClusterPlatform


class ConstraintCheck(abc.ABC):
    """Resource-constraint violation test used during iterative allocation."""

    #: When True, the first violation aborts the whole procedure (SCRAP);
    #: when False, only the offending task is frozen and other critical
    #: path tasks may still grow (SCRAP-MAX).
    stop_on_violation: bool = True

    @abc.abstractmethod
    def violated(self, allocation: Allocation, task: Task) -> bool:
        """True if *allocation* (after a tentative increment of *task*) violates the constraint."""


class NoConstraint(ConstraintCheck):
    """No resource constraint (CPA / HCPA): the balance criterion alone stops the loop."""

    stop_on_violation = True

    def violated(self, allocation: Allocation, task: Task) -> bool:
        """Never violated: CPA/HCPA only stop on the time/area balance criterion."""
        return False


class AreaConstraint(ConstraintCheck):
    """SCRAP's global constraint.

    A violation is detected "if the sum of the areas of the tasks [...]
    using the current allocation divided by the time spent executing the
    critical path of the PTG exceeds beta" times the globally available
    processing power.
    """

    stop_on_violation = True

    def __init__(self, beta: float, platform_power_gflops: float) -> None:
        if not (0.0 < beta <= 1.0):
            raise AllocationError(f"beta must be in (0, 1], got {beta}")
        if platform_power_gflops <= 0:
            raise AllocationError("platform power must be positive")
        self.beta = beta
        self.platform_power_gflops = platform_power_gflops

    def violated(self, allocation: Allocation, task: Task) -> bool:
        """Paper rule: average power over the critical path exceeds ``beta * P``."""
        return allocation.average_power() > self.beta * self.platform_power_gflops + 1e-12


class LevelConstraint(ConstraintCheck):
    """SCRAP-MAX's per-precedence-level constraint.

    "The idea is to restrain the amount of resources allocated at any
    precedence level to beta": the aggregate power of the tasks of any
    level must not exceed ``beta`` times the platform power, which
    guarantees that all the ready tasks of a level can in principle run
    concurrently within the application's share.
    """

    stop_on_violation = False

    def __init__(self, beta: float, platform_power_gflops: float) -> None:
        if not (0.0 < beta <= 1.0):
            raise AllocationError(f"beta must be in (0, 1], got {beta}")
        if platform_power_gflops <= 0:
            raise AllocationError("platform power must be positive")
        self.beta = beta
        self.platform_power_gflops = platform_power_gflops

    def violated(self, allocation: Allocation, task: Task) -> bool:
        """Paper rule: the task's precedence level would exceed ``beta * P``."""
        level = allocation.ptg.precedence_level(task.task_id)
        return (
            allocation.level_power(level)
            > self.beta * self.platform_power_gflops + 1e-12
        )


@dataclass
class IterationStats:
    """Diagnostics returned next to an allocation (used by tests and ablations)."""

    iterations: int = 0
    increments: int = 0
    frozen_tasks: int = 0
    stopped_by_balance: bool = False
    stopped_by_constraint: bool = False
    stopped_by_saturation: bool = False


DEFAULT_EFFICIENCY_THRESHOLD = 0.0


def run_iterative_allocation(
    ptg: PTG,
    platform: MultiClusterPlatform,
    reference: ReferenceCluster,
    beta: float,
    constraint: ConstraintCheck,
    use_balance_stop: bool = True,
    max_iterations: Optional[int] = None,
    efficiency_threshold: float = DEFAULT_EFFICIENCY_THRESHOLD,
) -> tuple[Allocation, IterationStats]:
    """Run the CPA-style iterative allocation loop.

    Parameters
    ----------
    ptg:
        The graph to allocate; must be validated (single entry/exit).
    platform:
        The target platform (used for the per-task allocation cap and for
        the total power the constraints refer to).
    reference:
        The reference cluster abstraction of *platform*.
    beta:
        The resource constraint in ``(0, 1]``.
    constraint:
        Violation test applied after each tentative increment.
    use_balance_stop:
        Stop when ``T_CP <= T_A`` where ``T_A`` is the average area over
        ``beta * N_ref`` reference processors (the CPA balance criterion
        scaled by the constraint).
    max_iterations:
        Safety bound; defaults to ``n_tasks * max_task_allocation + 1``.
    efficiency_threshold:
        A task may only receive one more processor while its parallel
        efficiency stays at or above this value.  This is the
        over-allocation remedy applied to HCPA in the authors' earlier
        comparison paper (ref. [11] of the reproduced paper): without it
        the CPA benefit criterion keeps feeding critical-path tasks far
        past the point of diminishing returns, which starves task
        parallelism and hurts dedicated-platform (``beta = 1``) schedules.
        Set to 0 to disable the guard.

    Returns
    -------
    (Allocation, IterationStats)

    Every call runs the loop: the memo lives in the allocator classes
    (:class:`IterativeAllocator`), not here.
    """
    _check_inputs(ptg, (beta,), efficiency_threshold)
    cap = reference.max_allocation(platform)
    ((procs, stats),) = _run_pass(
        ptg, reference, cap, [(beta, constraint)], use_balance_stop,
        max_iterations, efficiency_threshold,
    )
    _count_call()
    return _allocation(ptg, reference, beta, procs), stats


def _check_inputs(
    ptg: PTG, betas: Sequence[float], efficiency_threshold: float
) -> None:
    """The argument checks every allocation pays, memo hit or not."""
    for beta in betas:
        if not (0.0 < beta <= 1.0):
            raise AllocationError(f"beta must be in (0, 1], got {beta}")
    if not (0.0 <= efficiency_threshold <= 1.0):
        raise AllocationError(
            f"efficiency_threshold must be in [0, 1], got {efficiency_threshold}"
        )
    ptg.validate()


def _count_call() -> None:
    """Count one allocation call (memo hit or not) while telemetry is on."""
    registry = meters.active()
    if registry is not None:
        registry.counter("allocation.calls").inc()


def _allocation(
    ptg: PTG, reference: ReferenceCluster, beta: float, procs: Tuple[int, ...]
) -> Allocation:
    """A fresh :class:`Allocation` of *ptg* holding *procs* in task insertion order."""
    allocation = Allocation(ptg, reference, beta)
    allocation._procs = dict(zip(ptg.arrays().task_ids_tuple, procs))
    return allocation


def _run_pass(
    ptg: PTG, reference: ReferenceCluster, cap: int,
    members: Sequence[Tuple[float, ConstraintCheck]], use_balance_stop: bool,
    max_iterations: Optional[int], efficiency_threshold: float,
) -> List[MemberResult]:
    """Run one loop pass for *members* on checked inputs (see :func:`run_fused_loop`)."""
    if max_iterations is None:
        max_iterations = ptg.n_tasks * cap + 1
    state = AllocationState(ptg, reference, cap=cap, beta=members[0][0])

    # The span is coarse (one per pass, however many betas it serves) and
    # the counters are derived after the loop, so telemetry adds no
    # per-iteration work -- disabled or enabled.
    with trace.span("allocation.iterate", ptg=ptg.name) as obs_span:
        results, ran, forks, walks = run_fused_loop(
            state,
            members,
            use_balance_stop=use_balance_stop,
            max_iterations=max_iterations,
            efficiency_threshold=efficiency_threshold,
        )

        registry = meters.active()
        if registry is not None:
            obs_span.annotate(
                betas=len(members), forks=forks, walks=walks,
                iterations=ran.iterations, increments=ran.increments,
            )
            registry.counter("allocation.iterations").inc(ran.iterations)
            registry.counter("allocation.walks").inc(walks)
            registry.counter("allocation.increments").inc(ran.increments)
            registry.counter("allocation.frozen_tasks").inc(ran.frozen_tasks)
            stopped = sum(stats.stopped_by_constraint for _, stats in results)
            if stopped:
                registry.counter("allocation.stopped_by_constraint").inc(stopped)
    return results


#: Keys each allocator instance's memo holds before it drops the least
#: recently used one.  A long-lived daemon tenant keeps one allocator for
#: its whole life, so the memo must stay bounded even when no graph ever
#: repeats.
MEMO_CAPACITY = 1024

#: The checks whose only ``beta``-dependent input is a limit that grows
#: with ``beta``: :meth:`IterativeAllocator.prime` serves all the betas
#: of one graph with a single pass for these, one pass per beta otherwise.
_GROUPED_CHECKS = frozenset({NoConstraint, AreaConstraint, LevelConstraint})


class IterativeAllocator(AllocationProcedure):
    """The shared ``allocate`` of CPA, HCPA, SCRAP and SCRAP-MAX.

    The procedures differ only in the :class:`ConstraintCheck` that
    :meth:`make_constraint` hands to the loop.  The loop is a
    deterministic function of the compiled graph
    (:attr:`~repro.dag.arrays.DagArrays.digest`), the reference cluster,
    the per-task cap, the platform's total power, ``beta``, the
    constraint class, ``use_balance_stop`` and ``efficiency_threshold``,
    so each instance memoises the processor counts and
    :class:`IterationStats` of its :data:`MEMO_CAPACITY` most recently
    used such keys.  A hit returns a fresh
    :class:`~repro.allocation.base.Allocation` for the caller's graph and
    a copy of the stored stats as :attr:`last_stats`, without building
    an :class:`~repro.allocation.state.AllocationState`; it still raises
    like a miss on a bad ``beta`` or ``efficiency_threshold`` and on an
    invalid graph.  :meth:`prime` fills the memo for many betas of one
    graph with a single forked pass.

    Parameters
    ----------
    use_balance_stop:
        Stop at the CPA balance criterion (see
        :func:`run_iterative_allocation`).
    efficiency_threshold:
        The over-allocation guard of ref. [11]; 0 disables it.
    """

    def __init__(
        self,
        use_balance_stop: bool = True,
        efficiency_threshold: float = DEFAULT_EFFICIENCY_THRESHOLD,
    ) -> None:
        self.use_balance_stop = use_balance_stop
        self.efficiency_threshold = efficiency_threshold
        #: Diagnostics of the last :meth:`allocate` call.
        self.last_stats: Optional[IterationStats] = None
        # key -> (processors in task insertion order, stats of the run)
        self._memo: "OrderedDict[bytes, MemberResult]" = OrderedDict()

    def make_constraint(self, beta: float, platform_power_gflops: float) -> ConstraintCheck:
        """The procedure's resource-constraint check (none: CPA / HCPA)."""
        return NoConstraint()

    def check_platform(self, platform: MultiClusterPlatform) -> None:
        """Raise when the procedure cannot allocate on *platform* (every one can here)."""

    def allocate(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> Allocation:
        """Allocate *ptg* on *platform* under *beta*, reusing a memoised run."""
        self.check_platform(platform)
        reference = ReferenceCluster.of(platform)
        power = platform.total_power_gflops
        constraint = self.make_constraint(beta, power)
        _check_inputs(ptg, (beta,), self.efficiency_threshold)
        cap = reference.max_allocation(platform)
        key = self._key(ptg, reference, cap, power, beta, constraint)
        memo = self._memo
        stored = memo.get(key)
        if stored is None:
            ((procs, stats),) = self._run(
                ptg, reference, cap, [(beta, constraint, key)]
            )
        else:
            memo.move_to_end(key)
            procs, saved = stored
            stats = replace(saved)
            registry = meters.active()
            if registry is not None:
                registry.counter("allocation.memo_hits").inc()
                registry.counter("allocation.iterations_saved").inc(saved.iterations)
        _count_call()
        self.last_stats = stats
        return _allocation(ptg, reference, beta, procs)

    def memoised(
        self, ptg: PTG, platform: MultiClusterPlatform, beta: float = 1.0
    ) -> bool:
        """True when :meth:`allocate` would answer these arguments from the memo.

        ``False`` for arguments :meth:`allocate` refuses, which it then
        raises for when it gets to them.
        """
        power = platform.total_power_gflops
        try:
            self.check_platform(platform)
            constraint = self.make_constraint(beta, power)
        except AllocationError:
            return False
        reference = ReferenceCluster.of(platform)
        key = self._key(
            ptg, reference, reference.max_allocation(platform), power, beta, constraint
        )
        return key in self._memo

    def prime(
        self, ptg: PTG, platform: MultiClusterPlatform, betas: Iterable[float]
    ) -> None:
        """Memoise the allocations of *ptg* under every beta of *betas*.

        The betas the memo lacks run as one pass of the loop in increasing
        ``beta`` order, forked where a ``beta``-dependent test parts them
        (a custom :class:`ConstraintCheck` runs one pass per beta), so a
        later :meth:`allocate` of any of them is a memo hit that returns
        exactly what its own run would.  Raises what :meth:`allocate`
        raises for the same betas; memoised betas cost one key each.
        """
        betas = list(betas)
        if not betas:
            return
        self.check_platform(platform)
        reference = ReferenceCluster.of(platform)
        power = platform.total_power_gflops
        checks = [self.make_constraint(beta, power) for beta in betas]
        _check_inputs(ptg, betas, self.efficiency_threshold)
        cap = reference.max_allocation(platform)
        memo = self._memo
        pending: Dict[bytes, Tuple[float, ConstraintCheck, bytes]] = {}
        for beta, constraint in zip(betas, checks):
            key = self._key(ptg, reference, cap, power, beta, constraint)
            if key in memo:
                memo.move_to_end(key)
            elif key not in pending:
                pending[key] = (beta, constraint, key)
        members = sorted(pending.values(), key=lambda member: member[0])
        kinds = {type(constraint) for _, constraint, _ in members}
        if len(kinds) == 1 and kinds <= _GROUPED_CHECKS:
            self._run(ptg, reference, cap, members)
        else:
            for member in members:
                self._run(ptg, reference, cap, [member])

    def _key(
        self, ptg: PTG, reference: ReferenceCluster, cap: int, power: float,
        beta: float, constraint: ConstraintCheck,
    ) -> bytes:
        """The memo key of one run: every input the loop reads."""
        # one SHA-256 over the graph digest and the repr of every other
        # input the loop reads (float reprs round-trip exactly) keeps each
        # key at 32 bytes, however large the objects behind it
        inputs = (reference, cap, power, beta, type(constraint),
                  self.use_balance_stop, self.efficiency_threshold)
        return hashlib.sha256(ptg.arrays().digest + repr(inputs).encode()).digest()

    def _run(
        self, ptg: PTG, reference: ReferenceCluster, cap: int,
        members: Sequence[Tuple[float, ConstraintCheck, bytes]],
    ) -> List[MemberResult]:
        """One pass for *members* ``(beta, constraint, key)``, each result memoised."""
        results = _run_pass(
            ptg, reference, cap, [(beta, constraint) for beta, constraint, _ in members],
            self.use_balance_stop, None, self.efficiency_threshold,
        )
        memo = self._memo
        for (_, _, key), (procs, stats) in zip(members, results):
            memo[key] = (procs, replace(stats))
            if len(memo) > MEMO_CAPACITY:
                memo.popitem(last=False)
        return results
