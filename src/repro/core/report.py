"""Plain-text rendering of tables and figure series.

The benchmark harness prints each of the paper's tables and figures as
text: aligned tables, horizontal-bar series (for the speedup-vs-parameter
figures), and ASCII violins.  Keeping rendering in one module lets every
bench produce consistent, diff-able output.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.stats import ViolinSummary


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with a header rule."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row {row} does not match headers {headers}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    xs: Sequence[object],
    ys: Sequence[float],
    title: str = "",
    width: int = 50,
    marker: str = "*",
    reference: Optional[float] = None,
) -> str:
    """Horizontal bar chart of ``ys`` against labels ``xs``.

    With ``reference`` set (e.g. speedup 1.0), a ``|`` column marks it so
    sign flips are visible at a glance.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must align")
    if not ys:
        return title
    lo = min(ys)
    hi = max(ys)
    if reference is not None:
        lo = min(lo, reference)
        hi = max(hi, reference)
    span = hi - lo or 1.0

    def col(v: float) -> int:
        return int(round((v - lo) / span * (width - 1)))

    ref_col = col(reference) if reference is not None else -1
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append(
            f"  scale: {lo:.4f} .. {hi:.4f}"
            + (f"  (| marks {reference})" if reference is not None else "")
        )
    label_w = max(len(str(x)) for x in xs)
    for x, y in zip(xs, ys):
        c = col(y)
        row = [" "] * width
        if 0 <= ref_col < width:
            row[ref_col] = "|"
        row[c] = marker
        lines.append(f"{str(x).rjust(label_w)}  {''.join(row)}  {y:.4f}")
    return "\n".join(lines)


def render_violin(
    summary: ViolinSummary, title: str = "", width: int = 40, rows: int = 9
) -> str:
    """ASCII violin: density silhouette over the value range."""
    lines: List[str] = []
    if title:
        lines.append(title)
    grid, density = summary.grid, summary.density
    if len(grid) == 1:
        lines.append(f"  all values = {grid[0]:.4f}")
        return "\n".join(lines)
    max_d = max(density) or 1.0
    step = max(1, len(grid) // rows)
    for i in range(0, len(grid), step):
        bar = int(round(density[i] / max_d * width))
        lines.append(f"  {grid[i]:>12.4f} {'#' * bar}")
    st = summary.stats
    lines.append(
        f"  n={st.n} min={st.minimum:.4f} q1={st.q1:.4f} "
        f"median={st.median:.4f} q3={st.q3:.4f} max={st.maximum:.4f}"
    )
    return "\n".join(lines)


def render_interval_row(
    label: str, lo: float, mean: float, hi: float, scale: Tuple[float, float],
    width: int = 50, reference: Optional[float] = None,
    method: Optional[str] = None,
) -> str:
    """One `(----*----)` confidence-interval row on a fixed scale.

    ``method`` names the procedure behind the interval ("t" or "BCa")
    so the rendered table is self-describing; omit it only for rows
    whose method is stated elsewhere in the report.
    """
    smin, smax = scale
    span = smax - smin or 1.0

    def col(v: float) -> int:
        return max(0, min(width - 1, int(round((v - smin) / span * (width - 1)))))

    row = [" "] * width
    if reference is not None:
        row[col(reference)] = "|"
    for i in range(col(lo), col(hi) + 1):
        if row[i] == " ":
            row[i] = "-"
    row[col(lo)] = "("
    row[col(hi)] = ")"
    row[col(mean)] = "*"
    suffix = f" ({method})" if method else ""
    return f"{label}  {''.join(row)}  [{lo:.4f}, {hi:.4f}]{suffix}"
