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
* **fast-forward** -- after an accepted increment, the margins of the
  last walk prove that a new walk would return the same path and that
  the balance test would not stop, so the loop skips both (see below);
  under the none and level checks the bottom levels then wait for one
  sweep before the next walk;
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

Fast-forward
------------
The walk (:meth:`~repro.dag.arrays.DagArrays.critical_path_py`) also
returns its *lead*: the smallest margin by which a choice -- the entry
pick or a step out of a task with several successors -- beat its
runner-up (0 on a tie).  With ``slack = 1e-9 * t_cp`` taken at the walk,
``drop`` the sum of the duration drops ``T(v, p) - T(v, p + 1)`` of the
increments accepted since, and ``rise`` the sum of their area changes,
the next iteration skips ``max(bl)``, ``sum(areas)`` and the walk while

* ``drop + slack < lead``, and
* ``t_cp - 2 * slack - drop > (total + rise) / size_lo``, with ``total``
  the walk's ``sum(areas)`` and ``size_lo`` the lowest member's balance
  size (``t_cp - 2 * slack - drop > 0`` without the balance stop).

Why a skipped iteration is exact: every increment shortens a task on
the walked path ``P``, and durations only fall (``T(v, p)`` does not
grow with ``p``).  Float addition and ``max`` are monotone, so no
bottom level rises: a runner-up's level is at most what the walk saw.
The level of a task on ``P`` is at least the float sum of the durations
along ``P`` from it, which fell by at most ``drop``.  So at every choice
the chosen task still beats its runner-up strictly (no tie-break is
consulted) and every walk would return ``P``; ``max(bl)``, the level of
``P``'s entry, is at least ``t_cp - drop``, so the balance test cannot
stop the lowest member, nor (its bound falls with ``beta``) any other.
The slack absorbs the rounding this glosses over: the float sums along
``P``, the running ``drop`` and ``rise`` and the tests themselves are
each off by at most one unit roundoff (``2**-53``) of ``t_cp`` or of the
area sum per operation, and there are at most ``n * (cap + 1)`` of them
(a path holds at most ``n`` tasks and a pass accepts at most
``n * (cap - 1)`` increments); a pass fast-forwards only while
``n * (cap + 1)`` stays below :data:`FAST_FORWARD_OPS`, where that
rounding stays under half the slack.  A skipped iteration still runs
the candidate scan, the increment and the constraint test, so it counts
and decides like the oracle's.

Under the none and level checks nothing between two walks reads the
bottom levels, so accepted increments queue up and one multi-source
sweep propagates them before the next walk, or before a fork copies the
bottom levels (over the durations without the forking increment, so
both sides start current).  The sweep recomputes every node whose
inputs changed, after all its successors, from the inputs per-increment
propagation would have reached, so it gives the same floats.  The area
check reads ``max(bl)`` after every increment and a custom check may
read anything, so both propagate per increment.  Graphs whose walks
tie (the equal-cost levels of FFT butterflies: lead 0) skip nothing
beyond the freeze-skip.

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
  ``beta * P + 1e-12`` limits, in the same operation order; the level
  sum leaves out the synthetic members, whose ``0.0`` terms change
  neither the plain nor the compensated sum of non-negative floats;
* the candidate scan keeps the first maximal ``(gain, -task_id)`` key
  exactly like the oracle's ``max(candidates, key=...)``: a
  candidate only replaces the incumbent on a strictly greater key;
* the inline increment / revert reads the same precomputed table rows
  the oracle's per-task Amdahl calls evaluate (bounds always hold:
  growth is filtered by ``procs < cap``).

``tests/test_allocation_golden.py`` and ``tests/test_delta_golden.py``
assert the resulting allocations and :class:`IterationStats` match the
oracle across procedures, custom checks, workload families and betas;
``tests/test_properties_allocation.py`` also primes random beta lists,
and ``tests/test_allocation_fastforward.py`` pins the fast-forward's
cases (paths that change, ties, balance stops and forks after skipped
iterations).
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

#: Relative slack of the fast-forward margins: a walk of length ``t_cp``
#: grants ``FAST_FORWARD_SLACK * t_cp`` to the rounding of the floats
#: the margins stand for (see "Fast-forward" above).
FAST_FORWARD_SLACK = 1e-9

#: A pass over ``n`` tasks with cap ``cap`` fast-forwards only while
#: ``n * (cap + 1)`` stays below this many float operations, whose
#: rounding (2**-53 each) then stays under half the slack.
FAST_FORWARD_OPS = 4_000_000


def _propagate(
    sources: Sequence[int],
    bl: List[float],
    durations: List[float],
    succ_of: Tuple[Tuple[int, ...], ...],
    pred_of: Tuple[Tuple[int, ...], ...],
    topo_order: List[int],
    topo_pos: List[int],
    dirty: List[bool],
) -> List[Tuple[int, float]]:
    """Re-run the bottom-level DP over the dirty cone above *sources*.

    The sweep walks the topological order downwards from the highest
    position of a source, recomputing exactly the flagged nodes; a
    node's predecessors are flagged only when its value actually
    changed.  Every successor of a node is final before the node itself
    is recomputed -- the exact evaluation order (and hence the exact
    floats) of the full reverse-topological pass, however many
    durations changed since the bottom levels were last current.
    *dirty* is a caller-owned scratch list of ``False`` flags; the sweep
    leaves it all-``False`` again (every flagged node sits at a lower
    position and is therefore visited).  Returns an undo log of
    ``(index, old value)`` pairs so a rejected tentative increment can
    be rolled back.
    """
    undo: List[Tuple[int, float]] = []
    top = 0
    for v in sources:
        dirty[v] = True
        if topo_pos[v] > top:
            top = topo_pos[v]
    for pos in range(top, -1, -1):
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
) -> Tuple[List[MemberResult], "IterationStats", int, int]:
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
    each counted once however many members shared it), the number of
    times a test split the members and the number of critical-path
    walks the pass made.
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
    # the fast-forward slack covers the rounding of at most n * (cap + 1)
    # float operations (see "Fast-forward" in the module docstring)
    fast_forward = n * (cap + 1) < FAST_FORWARD_OPS

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
        # the power of a synthetic member is a 0.0 term, which leaves
        # both the plain and the compensated float sum unchanged
        powered = [
            tuple(i for i in level if not synthetic[i]) for level in arrays.level_tuples
        ]
        levels_tuple = arrays.levels_tuple
        level_members = [powered[levels_tuple[i]] for i in range(n)]
    speed_mul = speed_gflops.__mul__
    # the none and level checks never read the bottom levels, so accepted
    # increments queue up until a walk or a fork needs them current
    deferred = check_kind in (0, 2)
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
    forks = walks = 0
    # a branch: its member range [lo, hi), its working state, its path
    # and fast-forward margins, and the counters it started from (so the
    # pass counts shared work once)
    stack = [(
        0, m, state.procs, state.durations, state.areas, state.bottom_levels(),
        set(), [], False, 0.0, 0.0, 0.0, IterationStats(), 0, 0, 0,
    )]
    while stack:
        (lo, hi, procs, durations, areas, bl, frozen, path, path_valid,
         room, head, area, stats,
         start_iterations, start_increments, start_frozen) = stack.pop()
        size_lo = sizes[lo]
        limit_lo = limits[lo]
        # accepted increments whose bottom levels are not propagated yet
        pending: List[int] = []
        # While path_valid holds, the bottom levels, balance test and
        # critical path of this iteration would give the path in hand:
        # after a freeze the state is restored bit-for-bit, and after an
        # accepted increment the margins prove it (fast-forward).
        while stats.iterations < max_iterations:
            stats.iterations += 1
            if not path_valid:
                if pending:
                    _propagate(
                        pending, bl, durations, succ_of, pred_of,
                        topo_order, topo_pos, dirty,
                    )
                    pending = []
                t_cp = max(bl)
                if t_cp <= 0.0:
                    # graph of only synthetic tasks: nothing to allocate
                    break
                area = 0.0
                if use_balance_stop:
                    area = sum(areas)
                    if t_cp <= area / size_lo:
                        # the balance bound falls with beta: the members
                        # up to the first that still runs stop here
                        k = lo + 1
                        while k < hi and t_cp <= area / sizes[k]:
                            k += 1
                        if k == hi:
                            stats.stopped_by_balance = True
                            break
                        done = (tuple(procs), replace(stats, stopped_by_balance=True))
                        results[lo:k] = [done] * (k - lo)
                        forks += 1
                        lo, size_lo, limit_lo = k, sizes[k], limits[k]
                path, lead = arrays.critical_path_py(bl)
                walks += 1
                path_valid = True
                slack = FAST_FORWARD_SLACK * t_cp
                room = lead - slack if fast_forward else 0.0
                head = t_cp - 2.0 * slack

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
            undo = ()
            if not deferred:
                undo = _propagate(
                    (best,), bl, durations, succ_of, pred_of, topo_order, topo_pos, dirty
                )

            value = 0.0
            if check_kind == 2:
                value = sum(map(speed_mul, map(procs.__getitem__, level_members[best])))
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
                    # the task frozen, on copies of every mutable list.
                    # Only the level check gets here, and it defers
                    # propagation: the queued increments are swept into
                    # the shared bottom levels first, over the durations
                    # without this one, so both sides start current.
                    kept_durations = list(durations)
                    kept_durations[best] = drow[p1 - 2]
                    kept_areas = list(areas)
                    kept_areas[best] = arow[p1 - 2]
                    if pending:
                        _propagate(
                            pending, bl, kept_durations, succ_of, pred_of,
                            topo_order, topo_pos, dirty,
                        )
                        pending = []
                    fork_stats = replace(stats)
                    fork_stats.frozen_tasks += 1
                    stack.append((
                        lo, k, kept, kept_durations, kept_areas, list(bl),
                        frozen | {best}, path, True, room, head, area, fork_stats,
                        stats.iterations, stats.increments, stats.frozen_tasks,
                    ))
                lo, size_lo, limit_lo = k, sizes[k], limits[k]
            stats.increments += 1
            if deferred:
                pending.append(best)
            if room > 0.0:
                # fast-forward: charge the path's duration drop to both
                # margins and the area rise to the balance test
                drop = drow[p1 - 2] - drow[p1 - 1]
                room -= drop
                head -= drop
                if use_balance_stop:
                    area += arow[p1 - 1] - arow[p1 - 2]
                path_valid = room > 0.0 and head > area / size_lo
            else:
                path_valid = False

        done = (tuple(procs), stats)
        results[lo:hi] = [done] * (hi - lo)
        ran.iterations += stats.iterations - start_iterations
        ran.increments += stats.increments - start_increments
        ran.frozen_tasks += stats.frozen_tasks - start_frozen
    return results, ran, forks, walks
