"""Strassen matrix-multiplication parallel task graph.

The second regular application of the paper's evaluation is the Strassen
matrix multiplication; "all the Strassen PTGs have the same number of
tasks (25)" and the same shape — they only differ in the costs of their
tasks.  Because every Strassen PTG has the same maximal width, the
PS-width and WPS-width strategies degenerate to ES for this application
(Section 7 / Figure 5 of the paper).

One level of Strassen's algorithm on two ``m x m`` matrices A and B is:

* a **split/distribute** task producing the 8 quadrants,
* 10 **addition** tasks S1..S10 building the operands of the seven
  products (cost ``~ (m/2)**2`` element additions),
* 7 **multiplication** tasks P1..P7 (cost ``~ (m/2)**3`` — the dominant
  work, modelled with the paper's ``d**1.5`` complexity on ``d = (m/2)**2``
  elements),
* 6 **combination** tasks assembling the four quadrants of C (C12 and C21
  need one addition each, C11 and C22 need two chained additions each),
* a **merge** exit task.

Total: 1 + 10 + 7 + 6 + 1 = **25 tasks**, matching the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dag.cost_models import (
    ComplexityClass,
    sample_alpha,
    sample_data_elements,
    sequential_flops,
    MIN_DATA_ELEMENTS,
    MAX_DATA_ELEMENTS,
)
from repro.dag.graph import PTG
from repro.dag.task import Task
from repro.exceptions import ConfigurationError
from repro.utils.rng import ensure_rng

#: Number of tasks of a Strassen PTG (fixed structure).
STRASSEN_TASK_COUNT = 25

#: Operand quadrants used by each Si addition task: (left, right) with the
#: convention of Strassen's algorithm; ``None`` means the quadrant is used
#: alone (copy).  Indices: A11, A12, A21, A22, B11, B12, B21, B22.
_S_DEFINITIONS = [
    ("A21", "A22"),  # S1 = A21 + A22
    ("S1", "A11"),   # S2 = S1 - A11        (depends on S1)
    ("A11", "A21"),  # S3 = A11 - A21
    ("A12", "S2"),   # S4 = A12 - S2        (depends on S2)
    ("B12", "B11"),  # S5 = B12 - B11
    ("B22", "S5"),   # S6 = B22 - S5        (depends on S5)
    ("B22", "B12"),  # S7 = B22 - B12
    ("S6", "B21"),   # S8 = S6 - B21        (depends on S6)
    ("A11", "A22"),  # S9 = A11 + A22 (classic variant operand)
    ("B11", "B22"),  # S10 = B11 + B22
]

#: Operands of the seven products (names refer to quadrants or Si tasks).
_P_DEFINITIONS = [
    ("S9", "S10"),   # P1
    ("S1", "B11"),   # P2
    ("A11", "S5"),   # P3
    ("A22", "S8"),   # P4 (uses S8 which chains S6 <- S5)
    ("S2", "B22"),   # P5
    ("S4", "B22"),   # P6
    ("S3", "S7"),    # P7
]

#: Combination tasks: name -> list of product dependencies.
_C_DEFINITIONS = [
    ("C11a", ["P1", "P4"]),
    ("C11", ["C11a", "P5", "P7"]),
    ("C12", ["P3", "P5"]),
    ("C21", ["P2", "P4"]),
    ("C22a", ["P1", "P2"]),
    ("C22", ["C22a", "P3", "P6"]),
]


def generate_strassen_ptg(
    rng=None,
    data_elements: Optional[float] = None,
    alpha: Optional[float] = None,
    name: Optional[str] = None,
) -> PTG:
    """Build a 25-task Strassen matrix-multiplication PTG.

    Parameters
    ----------
    rng:
        Random source for the sampled parameters when not given.
    data_elements:
        Number of elements ``d`` of the full input matrices (``d = m*m``);
        drawn from the paper's [4M, 121M] range when ``None``.
    alpha:
        Amdahl non-parallelizable fraction common to all tasks; drawn in
        [0, 0.25] when ``None``.
    name:
        Application name (default ``"strassen"``).

    Returns
    -------
    PTG
        A validated 25-task graph with one entry (split) and one exit
        (merge) task.

    Examples
    --------
    >>> g = generate_strassen_ptg(rng=0)
    >>> g.n_tasks
    25
    >>> g.max_width(include_synthetic=True)  # the six unchained S additions
    6
    """
    generator = ensure_rng(rng)
    if data_elements is None:
        data_elements = sample_data_elements(generator, MIN_DATA_ELEMENTS, MAX_DATA_ELEMENTS)
    if alpha is None:
        alpha = sample_alpha(generator)
    if data_elements <= 0:
        raise ConfigurationError("data_elements must be positive")
    if not (0.0 <= alpha <= 1.0):
        raise ConfigurationError("alpha must be in [0, 1]")

    quadrant_elements = data_elements / 4.0

    graph = PTG(name or "strassen")
    ids: Dict[str, int] = {}
    next_id = 0

    def add(label: str, flops: float, elements: float) -> int:
        nonlocal next_id
        graph.add_task(
            Task(
                task_id=next_id,
                flops=flops,
                alpha=alpha,
                data_elements=elements,
                complexity=ComplexityClass.LINEAR if flops < elements**1.4 else ComplexityClass.MATMUL,
                name=label,
            )
        )
        ids[label] = next_id
        next_id += 1
        return ids[label]

    # costs: additions touch each element of a quadrant once; products are
    # the d**1.5 "matmul" complexity on a quadrant.
    add_flops = sequential_flops(ComplexityClass.LINEAR, quadrant_elements, a_factor=1.0)
    mult_flops = sequential_flops(ComplexityClass.MATMUL, quadrant_elements)
    split_flops = sequential_flops(ComplexityClass.LINEAR, data_elements, a_factor=1.0)

    # entry: split A and B into quadrants
    add("split", split_flops, data_elements)

    # S additions
    for i, (left, right) in enumerate(_S_DEFINITIONS, start=1):
        label = f"S{i}"
        add(label, add_flops, quadrant_elements)
        for operand in (left, right):
            src = ids[operand] if operand in ids else ids["split"]
            if not graph.has_edge(src, ids[label]):
                graph.add_edge(src, ids[label], graph.task(src).output_bytes / 4.0)

    # P products
    for i, (left, right) in enumerate(_P_DEFINITIONS, start=1):
        label = f"P{i}"
        add(label, mult_flops, quadrant_elements)
        for operand in (left, right):
            src = ids[operand] if operand in ids else ids["split"]
            if not graph.has_edge(src, ids[label]):
                graph.add_edge(src, ids[label], graph.task(src).output_bytes / 4.0)

    # C combinations
    for label, deps in _C_DEFINITIONS:
        add(label, add_flops, quadrant_elements)
        for dep in deps:
            graph.add_edge(ids[dep], ids[label], graph.task(ids[dep]).output_bytes)

    # exit: merge the four quadrants of C
    merge = add("merge", split_flops, data_elements)
    for label in ("C11", "C12", "C21", "C22"):
        graph.add_edge(ids[label], merge, graph.task(ids[label]).output_bytes)

    graph.validate()
    if graph.n_tasks != STRASSEN_TASK_COUNT:
        raise ConfigurationError(
            f"internal error: Strassen PTG has {graph.n_tasks} tasks, expected {STRASSEN_TASK_COUNT}"
        )
    return graph


def paper_strassen_workload(rng=None, n_ptgs: int = 4, name_prefix: str = "strassen") -> List[PTG]:
    """A workload of *n_ptgs* Strassen PTGs differing only in task costs."""
    generator = ensure_rng(rng)
    if n_ptgs < 1:
        raise ConfigurationError(f"n_ptgs must be positive, got {n_ptgs}")
    return [
        generate_strassen_ptg(rng=generator, name=f"{name_prefix}-{i}")
        for i in range(n_ptgs)
    ]
