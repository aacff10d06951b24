"""Array-compiled allocation state for the CPA-family hot loop.

The iterative allocation procedures (CPA, HCPA, SCRAP, SCRAP-MAX) evaluate
the same small set of quantities thousands of times: the execution time of
every task under its current reference allocation, the critical path of
the PTG under those times, the total area, and (for the constrained
procedures) the average power over the critical path or the aggregate
power of one precedence level.  The dict-based
:class:`~repro.allocation.base.Allocation` recomputes each of them from
scratch through per-task method calls -- including the construction of an
:class:`~repro.dag.cost_models.AmdahlTaskModel` per timing query.

:class:`AllocationState` compiles all of it once per
``(PTG, reference cluster, cap)``:

* the full duration table ``T(v, p)`` for ``p = 1..cap`` (vectorized
  Amdahl), plus the derived area table ``p * T(v, p)``, the CPA marginal
  gain table ``T(v,p)/p - T(v,p+1)/(p+1)`` and the parallel-efficiency
  table used by the over-allocation guard -- so ``task_time``,
  ``marginal_gain`` and the efficiency check become table lookups,
* the current per-task durations and areas, refreshed in O(1) per
  increment by :func:`~repro.allocation.fastloop.run_fused_loop`, which
  makes the total area (and hence SCRAP's average power) and
  SCRAP-MAX's per-level power single built-in ``sum`` calls instead of
  per-task method-call cascades,
* the critical-path DP over the precomputed topology of the shared
  :class:`~repro.dag.arrays.DagArrays` compilation.

Exactness
---------
Every table entry and every sum reproduces the IEEE-754 operation order
of the scalar code in :class:`~repro.allocation.base.Allocation` /
:class:`~repro.dag.cost_models.AmdahlTaskModel`: every float sum is the
same built-in ``sum`` call the reference makes, never a ``+=`` loop,
:func:`math.fsum` or :func:`numpy.sum` (since Python 3.12 ``sum`` of
floats is compensated, not a left-to-right fold, so only the same call
agrees), and maxima are exact.  The resulting allocations and iteration diagnostics are therefore
**bit-identical** to the dict-based oracle frozen in
``tests/oracles/allocation.py``, which ``tests/test_allocation_golden.py``
asserts across procedures, workload families and betas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.allocation.base import Allocation
from repro.allocation.reference import ReferenceCluster
from repro.dag.graph import PTG
from repro.exceptions import AllocationError

#: Key under which batched Amdahl tables are parked in ``PTG._cache``
#: (dropped automatically on any structural mutation of the graph, and
#: shared with its renamed copies).
_TABLE_CACHE_KEY = "alloc_tables"


def prepare_allocation_tables(
    ptgs: Sequence[PTG], reference: ReferenceCluster, cap: int
) -> None:
    """Precompute the Amdahl tables of a whole batch in one sweep.

    Stacks the ``alpha`` / ``flops`` columns of every graph in *ptgs*
    and evaluates the duration, area and CPA-gain tables of the entire
    batch with a single vectorized pass each, then parks each graph's row
    block in its cache where :class:`AllocationState` picks it up.  All
    three tables are **elementwise** expressions, so a row of the stacked
    result is bit-identical to the row the per-graph construction
    computes -- only the NumPy dispatch overhead is amortized.

    Graphs whose tables are already cached for this ``(reference, cap)``
    are skipped, and graphs sharing one cache (renamed copies) get one
    sweep between them.  Call :func:`discard_allocation_tables` once a
    graph's allocation has been materialised to keep a long stream's
    memory high-water mark flat.
    """
    if cap < 1:
        raise AllocationError(f"allocation cap must be >= 1, got {cap}")
    cap = int(cap)
    pending: List[PTG] = []
    seen_caches = set()
    for ptg in ptgs:
        if id(ptg._cache) in seen_caches:
            continue
        seen_caches.add(id(ptg._cache))
        cached = ptg._cache.get(_TABLE_CACHE_KEY)
        if isinstance(cached, dict) and (reference, cap) in cached:
            continue
        pending.append(ptg)
    if not pending:
        return

    arrays = [ptg.arrays() for ptg in pending]
    alpha_col = np.concatenate([a.alpha for a in arrays])[:, None]
    flops_col = np.concatenate([a.flops for a in arrays])[:, None]
    procs_row = np.arange(1, cap + 1, dtype=np.float64)
    durations = (
        (alpha_col + (1.0 - alpha_col) / procs_row)
        * flops_col
        / reference.speed_flops
    )
    areas = procs_row * durations
    gain = (
        durations[:, :-1] / procs_row[:-1] - durations[:, 1:] / procs_row[1:]
    )

    row = 0
    for ptg, a in zip(pending, arrays):
        n = a.n_tasks
        bucket = ptg._cache.setdefault(_TABLE_CACHE_KEY, {})
        bucket[(reference, cap)] = (
            durations[row : row + n],
            areas[row : row + n],
            gain[row : row + n],
        )
        row += n


def discard_allocation_tables(ptg: PTG) -> None:
    """Drop any batched Amdahl tables cached on *ptg*.

    The tables only serve the admissions of one batch; dropping them
    afterwards (the streaming session does it on commit) keeps the
    per-graph cache from pinning ``O(n_tasks * cap)`` floats for the
    lifetime of the stream.  The tables go for every copy sharing the
    graph's cache; a later allocation of one of them rebuilds its own,
    bit-identical rows.  A graph without cached tables is a no-op.
    """
    ptg._cache.pop(_TABLE_CACHE_KEY, None)


class AllocationState:
    """Flat-array working state of one iterative allocation run.

    Parameters
    ----------
    ptg:
        The (validated) graph being allocated.
    reference:
        The reference cluster timings are expressed against.
    cap:
        Largest useful per-task allocation
        (:meth:`~repro.allocation.reference.ReferenceCluster.max_allocation`).
    beta:
        The resource constraint, forwarded to the final
        :class:`~repro.allocation.base.Allocation`.
    """

    def __init__(
        self, ptg: PTG, reference: ReferenceCluster, cap: int, beta: float = 1.0
    ) -> None:
        if cap < 1:
            raise AllocationError(f"allocation cap must be >= 1, got {cap}")
        self.ptg = ptg
        self.reference = reference
        self.cap = int(cap)
        self.beta = float(beta)
        self.arrays = ptg.arrays()
        n = self.arrays.n_tasks

        # Duration table T(v, p), p = 1..cap, with the exact operation
        # order of AmdahlTaskModel.time: (alpha + (1-alpha)/p) * w / s.
        # Synthetic (zero-flop) rows are exactly 0.0 because the zero
        # sequential cost multiplies out, matching Task.execution_time.
        # A batch admission may have prebuilt the tables for the whole
        # arrival chunk (prepare_allocation_tables); the stacked sweep is
        # elementwise, so its row blocks are bit-identical to the ones
        # computed here.
        procs_row = np.arange(1, self.cap + 1, dtype=np.float64)
        bucket = ptg._cache.get(_TABLE_CACHE_KEY)
        prepared: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
            bucket.get((reference, self.cap)) if isinstance(bucket, dict) else None
        )
        if prepared is not None:
            self.durations_table, self.areas_table, self.gain_table = prepared
        else:
            alpha_col = self.arrays.alpha[:, None]
            flops_col = self.arrays.flops[:, None]
            self.durations_table = (
                (alpha_col + (1.0 - alpha_col) / procs_row)
                * flops_col
                / reference.speed_flops
            )
            #: Area table p * T(v, p), operation order of AmdahlTaskModel.area.
            self.areas_table = procs_row * self.durations_table
            #: CPA benefit table T(v,p)/p - T(v,p+1)/(p+1) for p = 1..cap-1.
            self.gain_table = (
                self.durations_table[:, :-1] / procs_row[:-1]
                - self.durations_table[:, 1:] / procs_row[1:]
            )
        self._procs_row = procs_row
        self._eff_table: Optional[np.ndarray] = None

        #: Current reference allocation of every task (insertion order).
        self.procs: List[int] = [1] * n
        #: Current execution times T(v, procs[v]) as Python floats.
        self.durations: List[float] = self.durations_table[:, 0].tolist()
        #: Current areas procs[v] * T(v, procs[v]) as Python floats.
        self.areas: List[float] = self.areas_table[:, 0].tolist()
        # lazily materialised Python rows of the tables: scalar lookups in
        # the loop skip NumPy indexing, and only touched rows pay the
        # conversion (critical-path tasks are a small subset of V x cap)
        self._dur_rows: Dict[int, List[float]] = {}
        self._area_rows: Dict[int, List[float]] = {}
        self._gain_rows: Dict[int, List[float]] = {}
        self._eff_rows: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------ #
    # lazy Python rows of the precomputed tables
    # ------------------------------------------------------------------ #
    def _row(self, cache: Dict[int, List[float]], table, index: int) -> List[float]:
        row = cache.get(index)
        if row is None:
            row = cache[index] = table[index].tolist()
        return row

    def duration_row(self, index: int) -> List[float]:
        """Durations ``T(v, 1..cap)`` of the task at *index* (Python floats)."""
        return self._row(self._dur_rows, self.durations_table, index)

    def gain_row(self, index: int) -> List[float]:
        """Marginal gains of the task at *index* for ``p = 1..cap-1``."""
        return self._row(self._gain_rows, self.gain_table, index)

    def area_row(self, index: int) -> List[float]:
        """Areas ``p * T(v, p)`` of the task at *index* for ``p = 1..cap``."""
        return self._row(self._area_rows, self.areas_table, index)

    def efficiency_row(self, index: int) -> List[float]:
        """Parallel efficiencies of the task at *index* for ``p = 1..cap``."""
        return self._row(self._eff_rows, self.efficiency_table(), index)

    def efficiency_table(self) -> np.ndarray:
        """Parallel efficiency table ``eff(v, p)`` for ``p = 1..cap``.

        Built lazily (only the over-allocation guard needs it) with the
        exact operation order of
        :meth:`~repro.dag.cost_models.AmdahlTaskModel.efficiency`:
        ``(1 / (alpha + (1-alpha)/p)) / p``.
        """
        if self._eff_table is None:
            alpha_col = self.arrays.alpha[:, None]
            speedup = 1.0 / (alpha_col + (1.0 - alpha_col) / self._procs_row)
            self._eff_table = speedup / self._procs_row
        return self._eff_table

    # ------------------------------------------------------------------ #
    # graph quantities under the current allocation
    # ------------------------------------------------------------------ #
    def bottom_levels(self) -> List[float]:
        """Bottom levels under the current durations, as a Python list."""
        return self.arrays.bottom_levels(self.durations)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def as_allocation(self) -> Allocation:
        """Materialise the current allocation.

        Returns an :class:`~repro.allocation.base.Allocation` whose
        processor dict is rebuilt in task insertion order, so it is
        indistinguishable from one produced by the dict-based oracle loop.
        """
        allocation = Allocation(self.ptg, self.reference, self.beta)
        allocation._procs = dict(zip(self.arrays.task_ids_tuple, self.procs))
        return allocation
