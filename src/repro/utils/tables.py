"""Minimal ASCII table rendering.

The experiment harness reports every reproduced table and figure as plain
text (rows of numbers) so the output can be compared against the paper
without plotting dependencies.  The two helpers here are deliberately
small: a column-aligned table and a "series" formatter that prints one row
per x-value with one column per labelled series (the textual equivalent of
the paper's line plots).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Union

Number = Union[int, float]


def _fmt_cell(value, float_fmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    float_fmt: str = ".3f",
    title: str = "",
) -> str:
    """Render *rows* as a column-aligned ASCII table.

    Columns are separated by two spaces and the rule under the header
    spans the table's full width; no line ends in whitespace.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of rows; every row must have ``len(headers)`` entries.
    float_fmt:
        ``format()`` spec applied to float cells.
    title:
        Optional title printed above the table.

    Examples
    --------
    >>> print(format_table(["a", "b"], [[1, 2.5]], float_fmt=".1f"))
    a  b
    ------
    1  2.5
    """
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(headers):
            raise ValueError(
                f"row has {len(r)} cells but table has {len(headers)} columns"
            )
    cells = [[_fmt_cell(c, float_fmt) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence,
    series: Mapping[str, Sequence[Number]],
    float_fmt: str = ".3f",
    title: str = "",
) -> str:
    """Render labelled series (one column per label) against *x_values*.

    This is the textual rendering used for the paper's figures: the x axis
    is typically the number of concurrent PTGs or the ``mu`` parameter and
    each series is one constraint-determination strategy.
    """
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(x_values)} x points"
            )
    headers = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(headers, rows, float_fmt=float_fmt, title=title)


def series_from_records(
    records: Iterable[Mapping], x_key: str, series_key: str, value_key: str
) -> Dict[str, List[float]]:
    """Pivot flat result records into ``{series: [values ordered by x]}``.

    ``records`` is an iterable of mappings (one per measurement).  The
    x-values are sorted in natural order, and missing combinations raise a
    ``KeyError`` so silent gaps in an experiment sweep cannot go unnoticed.
    """
    records = list(records)
    xs = sorted({r[x_key] for r in records})
    names = sorted({r[series_key] for r in records})
    index = {(r[series_key], r[x_key]): r[value_key] for r in records}
    out: Dict[str, List[float]] = {}
    for name in names:
        out[name] = []
        for x in xs:
            if (name, x) not in index:
                raise KeyError(f"missing record for series {name!r} at {x_key}={x!r}")
            out[name].append(index[(name, x)])
    return out
