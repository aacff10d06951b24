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
  per-iteration function calls besides the critical-path walk;
* **one pass for many betas** -- ``beta`` enters the loop in two
  threshold tests only (see below), so the runs of one graph under
  several ``beta`` share every iteration until a test sends them apart;
  the pass then forks its state and carries on with each side.

Several betas in one pass
-------------------------
The loop reads ``beta`` in exactly two places: the balance stop
``t_cp <= sum(areas) / max(1, beta * N_ref)`` and the constraint test
``value > beta * P + 1e-12`` after a tentative increment (``value`` is
the level's power for SCRAP-MAX, the average power for SCRAP).  The
tables, the candidate scan, the propagation, the efficiency guard and
``max_iterations`` are ``beta``-free.  IEEE multiplication, addition and
division by a positive number round monotonically, so with the members
sorted by ``beta`` each test splits a branch's members into a low prefix
(stopped, or violated) and a high suffix: comparing against the two ends
of the range decides the common case, and only a split scans.  A split
records the finished members' result, or (SCRAP-MAX) copies the
processor counts, durations, areas, bottom levels, frozen set and
:class:`~repro.allocation.iterative.IterationStats` for the side that
rejects the increment; every branch then runs the very operations on the
very floats its members' own runs would.  A pass with one member is the
plain loop.

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
oracle across procedures, custom checks, workload families and betas;
``tests/test_properties_allocation.py`` also primes random beta lists.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.exceptions import AllocationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.allocation.iterative import ConstraintCheck, IterationStats
    from repro.allocation.state import AllocationState

#: What a pass hands back for each member: the processor counts in task
#: insertion order and the member's own iteration diagnostics.
MemberResult = Tuple[Tuple[int, ...], "IterationStats"]


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
    members: Sequence[Tuple[float, "ConstraintCheck"]],
    use_balance_stop: bool,
    max_iterations: int,
    efficiency_threshold: float,
) -> Tuple[List[MemberResult], "IterationStats", int]:
    """Run the allocation iteration once for every ``(beta, constraint)`` member.

    The loop body of
    :func:`repro.allocation.iterative.run_iterative_allocation`; each
    member's result is bit-identical to the oracle's run under its own
    ``beta`` and constraint (see the module docstring for the argument).
    Several members must share one built-in constraint class and be
    sorted so that their balance sizes ``max(1, beta * N_ref)`` and
    constraint limits ``beta * P + 1e-12`` both never decrease; a custom
    check runs alone.  The pass starts from *state* and mutates it.

    Returns the per-member ``(processors, stats)`` in member order, the
    volume the pass ran (iterations, accepted increments and freezes,
    each counted once however many members shared it) and the number of
    times a test split the members.
    """
    from repro.allocation.iterative import (
        AreaConstraint,
        IterationStats,
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

    cap = state.cap
    efficiency_guard = efficiency_threshold - 1e-12
    use_efficiency_guard = efficiency_threshold > 0.0

    # constraint dispatch hoisted out of the loop: 0 = none, 1 = area
    # (SCRAP average power), 2 = level (SCRAP-MAX per-level power),
    # 3 = any other check, called on a materialised Allocation
    constraint = members[0][1]
    speed_gflops = state.reference.speed_gflops
    check_kind = 3
    level_members: List[Tuple[int, ...]] = []
    if type(constraint) is NoConstraint:
        check_kind = 0
    elif type(constraint) is AreaConstraint:
        check_kind = 1
    elif type(constraint) is LevelConstraint:
        check_kind = 2
        level_tuples = arrays.level_tuples
        levels_tuple = arrays.levels_tuple
        level_members = [level_tuples[levels_tuple[i]] for i in range(n)]
    stop_on_violation = constraint.stop_on_violation
    sizes = [max(1.0, beta * state.reference.size) for beta, _ in members]
    limits = [
        c.beta * c.platform_power_gflops + 1e-12 if check_kind in (1, 2) else 0.0
        for _, c in members
    ]
    m = len(members)
    if m > 1 and (
        check_kind == 3
        or any(type(c) is not type(constraint) for _, c in members)
        or sizes != sorted(sizes)
        or limits != sorted(limits)
    ):
        raise AllocationError(
            "a pass over several betas needs one built-in constraint class "
            "and members sorted by beta"
        )

    # lazily materialised Python rows of the precomputed tables, fetched
    # through the state so its own caches stay shared; beta-free, so
    # every branch of the pass reads the same rows
    gain_rows: List[Optional[List[float]]] = [None] * n
    dur_rows: List[Optional[List[float]]] = [None] * n
    area_rows: List[Optional[List[float]]] = [None] * n
    eff_rows: List[Optional[List[float]]] = [None] * n

    results: List[Optional[MemberResult]] = [None] * m
    ran = IterationStats()
    forks = 0
    # a branch: its member range [lo, hi), its working state, and the
    # counters it started from (so the pass counts shared work once)
    stack = [(
        0, m, state.procs, state.durations, state.areas, state.bottom_levels(),
        set(), [], False, IterationStats(), 0, 0, 0,
    )]
    while stack:
        (lo, hi, procs, durations, areas, bl, frozen, path, path_valid, stats,
         start_iterations, start_increments, start_frozen) = stack.pop()
        size_lo = sizes[lo]
        limit_lo = limits[lo]
        # After a freeze the state is restored bit-for-bit, so the bottom
        # levels, balance test and critical path of the next iteration are
        # the floats already in hand -- only the candidate filter changes.
        while stats.iterations < max_iterations:
            stats.iterations += 1
            if not path_valid:
                t_cp = max(bl)
                if t_cp <= 0.0:
                    # graph of only synthetic tasks: nothing to allocate
                    break
                if use_balance_stop:
                    total = sum(areas)
                    if t_cp <= total / size_lo:
                        # the balance bound falls with beta: the members
                        # up to the first that still runs stop here
                        k = lo + 1
                        while k < hi and t_cp <= total / sizes[k]:
                            k += 1
                        if k == hi:
                            stats.stopped_by_balance = True
                            break
                        done = (tuple(procs), replace(stats, stopped_by_balance=True))
                        results[lo:k] = [done] * (k - lo)
                        forks += 1
                        lo, size_lo, limit_lo = k, sizes[k], limits[k]
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

            value = 0.0
            if check_kind == 2:
                value = sum(
                    0.0 if synthetic[i] else procs[i] * speed_gflops
                    for i in level_members[best]
                )
                violated = value > limit_lo
            elif check_kind == 1:
                # operation order of Allocation.average_power, with the
                # critical path length read off the maintained bottom levels
                cp = max(bl)
                if cp > 0.0:
                    value = sum(areas) * speed_gflops / cp
                    violated = value > limit_lo
                else:
                    violated = False
            elif check_kind == 3:
                violated = constraint.violated(
                    state.as_allocation(), state.ptg.task(task_ids[best])
                )
            else:
                violated = False

            if violated:
                # the limit rises with beta: the members up to the first
                # that keeps the increment reject it
                k = lo + 1
                while k < hi and value > limits[k]:
                    k += 1
                if k == hi:
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
                forks += 1
                kept = list(procs)
                kept[best] = p1 - 1
                if stop_on_violation:
                    done = (tuple(kept), replace(stats, stopped_by_constraint=True))
                    results[lo:k] = [done] * (k - lo)
                else:
                    # members [lo, k) go on from the reverted state with
                    # the task frozen, on copies of every mutable list
                    kept_durations = list(durations)
                    kept_durations[best] = drow[p1 - 2]
                    kept_areas = list(areas)
                    kept_areas[best] = arow[p1 - 2]
                    kept_bl = list(bl)
                    for index, old in undo:
                        kept_bl[index] = old
                    fork_stats = replace(stats)
                    fork_stats.frozen_tasks += 1
                    stack.append((
                        lo, k, kept, kept_durations, kept_areas, kept_bl,
                        frozen | {best}, path, True, fork_stats,
                        stats.iterations, stats.increments, stats.frozen_tasks,
                    ))
                lo, size_lo, limit_lo = k, sizes[k], limits[k]
            stats.increments += 1
            path_valid = False

        done = (tuple(procs), stats)
        results[lo:hi] = [done] * (hi - lo)
        ran.iterations += stats.iterations - start_iterations
        ran.increments += stats.increments - start_increments
        ran.frozen_tasks += stats.frozen_tasks - start_frozen
    return results, ran, forks
