"""The CPA-family iterative allocation loop, fused into one flat pass.

The straightforward formulation re-derives the bottom levels of the
whole graph **twice** per accepted increment -- once for the balance
test and critical path, and (for SCRAP) once more inside the
constraint's ``average_power`` re-evaluation -- although a single
increment only shortens one task.  :func:`run_fused_loop`, the loop
body of :func:`repro.allocation.iterative.run_iterative_allocation`,
fuses the iteration into one flat pass that exploits exactly that
locality:

* **incremental bottom levels** -- after an increment only the task and
  its ancestors can change, so the DP is re-run over the dirty cone
  (a flag-guided sweep in decreasing topological position, with an undo
  log for rejected increments) instead of the whole graph;
* **freeze-skip** -- a rejected increment under SCRAP-MAX restores the
  state bit-for-bit, so the next iteration's bottom levels, critical
  path and balance test are *the same floats* as the last one's and are
  reused instead of recomputed (the iteration is still counted against
  ``max_iterations``);
* **hoisted constraint checks** -- the built-in area / level tests are
  dispatched once before the loop and evaluated inline over the
  incrementally maintained bottom levels and areas, instead of a fresh
  full DP (plus closure dispatch) per tentative increment; any other
  :class:`~repro.allocation.iterative.ConstraintCheck` has its
  ``violated`` called on a materialised
  :class:`~repro.allocation.base.Allocation`;
* **flat hot path** -- candidate filtering, the ``(gain, -task_id)``
  selection and the per-increment table refresh run inline on
  lazily-materialised Python rows of the precomputed tables, with no
  per-iteration function calls besides the critical-path walk.

Exactness
---------
Every float the loop produces is bit-identical to the dict-based
oracle frozen in ``tests/oracles/allocation.py``:

* recomputing a node's bottom level from unchanged inputs yields the
  identical IEEE-754 value, so propagating only nodes whose recomputed
  value differs (and their predecessors), in decreasing topological
  position, reproduces the full DP exactly;
* the balance and constraint comparisons make the same built-in
  ``sum`` calls as the oracle (over the state's incrementally
  maintained areas and over the members of the incremented task's
  precedence level) -- never a ``+=`` loop, :func:`math.fsum` or
  :func:`numpy.sum`, since from Python 3.12 on ``sum`` of floats is
  compensated rather than a left-to-right fold -- and use the same
  ``beta * P + 1e-12`` limits, in the same operation order;
* the candidate scan keeps the first maximal ``(gain, -task_id)`` key
  exactly like the oracle's ``max(candidates, key=...)``: a
  candidate only replaces the incumbent on a strictly greater key;
* the inline increment / revert reads the same precomputed table rows
  the oracle's per-task Amdahl calls evaluate (bounds always hold:
  growth is filtered by ``procs < cap``).

``tests/test_allocation_golden.py`` and ``tests/test_delta_golden.py``
assert the resulting allocations and :class:`IterationStats` match the
oracle across procedures, custom checks, workload families and betas.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.allocation.iterative import ConstraintCheck, IterationStats
    from repro.allocation.state import AllocationState


def _propagate(
    start: int,
    bl: List[float],
    durations: List[float],
    succ_of: Tuple[Tuple[int, ...], ...],
    pred_of: Tuple[Tuple[int, ...], ...],
    topo_order: List[int],
    topo_pos: List[int],
    dirty: List[bool],
) -> List[Tuple[int, float]]:
    """Re-run the bottom-level DP over the dirty cone above *start*.

    The sweep walks the topological order downwards from *start*'s
    position, recomputing exactly the flagged nodes; a node's
    predecessors are flagged only when its value actually changed.
    Every successor of a node is final before the node itself is
    recomputed -- the exact evaluation order (and hence the exact
    floats) of the full reverse-topological pass.  *dirty* is a
    caller-owned scratch list of ``False`` flags; the sweep leaves it
    all-``False`` again (every flagged node sits at a lower position
    and is therefore visited).  Returns an undo log of ``(index, old
    value)`` pairs so a rejected tentative increment can be rolled
    back.
    """
    undo: List[Tuple[int, float]] = []
    dirty[start] = True
    for pos in range(topo_pos[start], -1, -1):
        v = topo_order[pos]
        if not dirty[v]:
            continue
        dirty[v] = False
        best = 0.0
        for s in succ_of[v]:
            w = bl[s]
            if w > best:
                best = w
        new = durations[v] + best
        old = bl[v]
        if new == old:
            continue
        undo.append((v, old))
        bl[v] = new
        for p in pred_of[v]:
            dirty[p] = True
    return undo


def run_fused_loop(
    state: "AllocationState",
    constraint: "ConstraintCheck",
    stats: "IterationStats",
    use_balance_stop: bool,
    max_iterations: int,
    efficiency_threshold: float,
    effective_ref_size: float,
) -> None:
    """Run the allocation iteration, mutating *state* and *stats*.

    The loop body of
    :func:`repro.allocation.iterative.run_iterative_allocation`; produces
    allocations and iteration diagnostics bit-identical to the oracle
    (see the module docstring for the argument).
    """
    from repro.allocation.iterative import (
        AreaConstraint,
        LevelConstraint,
        NoConstraint,
    )

    arrays = state.arrays
    task_ids = arrays.task_ids_tuple
    synthetic = arrays.synthetic_tuple
    succ_of = arrays.succ_tuples
    pred_of = arrays.pred_tuples
    n = arrays.n_tasks
    topo_order = arrays.topo.tolist()
    topo_pos = [0] * n
    for pos, v in enumerate(topo_order):
        topo_pos[v] = pos
    dirty = [False] * n

    durations = state.durations  # live views: kept in sync by the
    areas = state.areas  # inline increment / revert below
    procs = state.procs
    cap = state.cap
    frozen: set = set()
    efficiency_guard = efficiency_threshold - 1e-12
    use_efficiency_guard = efficiency_threshold > 0.0
    bl = state.bottom_levels()

    # constraint dispatch hoisted out of the loop: 0 = none, 1 = area
    # (SCRAP average power), 2 = level (SCRAP-MAX per-level power),
    # 3 = any other check, called on a materialised Allocation
    speed_gflops = state.reference.speed_gflops
    check_kind = 3
    area_limit = level_limit = 0.0
    members_of: List[Tuple[int, ...]] = []
    if type(constraint) is NoConstraint:
        check_kind = 0
    elif type(constraint) is AreaConstraint:
        check_kind = 1
        area_limit = constraint.beta * constraint.platform_power_gflops + 1e-12
    elif type(constraint) is LevelConstraint:
        check_kind = 2
        level_limit = constraint.beta * constraint.platform_power_gflops + 1e-12
        level_tuples = arrays.level_tuples
        levels_tuple = arrays.levels_tuple
        members_of = [level_tuples[levels_tuple[i]] for i in range(n)]
    stop_on_violation = constraint.stop_on_violation

    # lazily materialised Python rows of the precomputed tables, fetched
    # through the state so its own caches stay shared
    gain_rows: List[Optional[List[float]]] = [None] * n
    dur_rows: List[Optional[List[float]]] = [None] * n
    area_rows: List[Optional[List[float]]] = [None] * n
    eff_rows: List[Optional[List[float]]] = [None] * n

    # After a freeze the state is restored bit-for-bit, so the bottom
    # levels, balance test and critical path of the next iteration are
    # the floats already in hand -- only the candidate filter changes.
    path_valid = False
    path: List[int] = []
    while stats.iterations < max_iterations:
        stats.iterations += 1
        if not path_valid:
            t_cp = max(bl)
            if t_cp <= 0.0:
                # graph of only synthetic tasks: nothing to allocate
                break
            if use_balance_stop:
                if t_cp <= sum(areas) / effective_ref_size:
                    stats.stopped_by_balance = True
                    break
            path = arrays.critical_path_py(bl)
            path_valid = True

        # fused candidate filter + (gain, -task_id) argmax over the
        # critical path; only a strictly greater key replaces the
        # incumbent, like the reference's first-maximal ``max``
        best = -1
        best_gain = 0.0
        best_tid = 0
        for i in path:
            if synthetic[i] or i in frozen:
                continue
            p = procs[i]
            if p >= cap:
                continue
            if use_efficiency_guard:
                eff = eff_rows[i]
                if eff is None:
                    eff = eff_rows[i] = state.efficiency_row(i)
                if eff[p] < efficiency_guard:
                    continue
            row = gain_rows[i]
            if row is None:
                row = gain_rows[i] = state.gain_row(i)
            g = row[p - 1]
            tid = task_ids[i]
            if best < 0 or g > best_gain or (g == best_gain and tid < best_tid):
                best, best_gain, best_tid = i, g, tid
        if best < 0:
            stats.stopped_by_saturation = True
            break

        # tentative increment; bounds always hold (p < cap)
        p1 = procs[best] + 1
        procs[best] = p1
        drow = dur_rows[best]
        if drow is None:
            drow = dur_rows[best] = state.duration_row(best)
        arow = area_rows[best]
        if arow is None:
            arow = area_rows[best] = state.area_row(best)
        durations[best] = drow[p1 - 1]
        areas[best] = arow[p1 - 1]

        undo = _propagate(
            best, bl, durations, succ_of, pred_of, topo_order, topo_pos, dirty
        )

        if check_kind == 2:
            violated = (
                sum(
                    0.0 if synthetic[i] else procs[i] * speed_gflops
                    for i in members_of[best]
                )
                > level_limit
            )
        elif check_kind == 1:
            # operation order of Allocation.average_power, with the
            # critical path length read off the maintained bottom levels
            cp = max(bl)
            violated = cp > 0.0 and sum(areas) * speed_gflops / cp > area_limit
        elif check_kind == 3:
            violated = constraint.violated(
                state.as_allocation(), state.ptg.task(task_ids[best])
            )
        else:
            violated = False

        if violated:
            # revert the increment and roll the bottom levels back
            procs[best] = p1 - 1
            durations[best] = drow[p1 - 2]
            areas[best] = arow[p1 - 2]
            for index, old in undo:
                bl[index] = old
            if stop_on_violation:
                stats.stopped_by_constraint = True
                break
            frozen.add(best)
            stats.frozen_tasks += 1
            continue
        stats.increments += 1
        path_valid = False
