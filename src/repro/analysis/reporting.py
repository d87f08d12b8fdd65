"""Fixed-width tables and CSV export for experiment results.

The goal is output a reader can hold next to the paper's Fig. 1: same
x-axis, same two metrics, same "who wins by what factor" reading, plus
the success/consistency columns an implementation has to be honest about.
"""

from __future__ import annotations

import io
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ReproError

if TYPE_CHECKING:
    # Annotation only: importing the runners here would make this module
    # the entry point of the experiments -> scenarios -> reporting cycle
    # whenever it is imported before repro.analysis.experiments.
    from repro.analysis.experiments import Figure1Result


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width text table."""
    if not headers:
        raise ReproError("table needs headers")
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ReproError(
                f"row has {len(row)} cells for {len(headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def format_figure1_table(result: Figure1Result) -> str:
    """Fig. 1 as the paper would tabulate it, one row per network size."""
    headers = [
        "n",
        "degree",
        "S3 lat (ms)",
        "S4 lat (ms)",
        "lat ratio",
        "S3 radio (ms)",
        "S4 radio (ms)",
        "radio ratio",
        "S3 ok",
        "S4 ok",
    ]
    rows = []
    for point in result.points:
        rows.append(
            [
                point.num_nodes,
                point.degree,
                point.s3_latency_ms.mean,
                point.s4_latency_ms.mean,
                f"{point.latency_ratio:.1f}x",
                point.s3_radio_ms.mean,
                point.s4_radio_ms.mean,
                f"{point.radio_ratio:.1f}x",
                f"{point.s3_success:.2f}",
                f"{point.s4_success:.2f}",
            ]
        )
    title = (
        f"Figure 1 — {result.testbed}: S3 vs S4, "
        f"{result.iterations} iterations per point "
        "(latency = mean over rounds of last-node completion; "
        "radio = mean per-node radio-on time)"
    )
    return format_table(headers, rows, title=title)


def to_csv(
    rows: Sequence[Mapping[str, object]],
    field_order: Sequence[str] | None = None,
) -> str:
    """Serialize dict-rows to CSV text (stable column order)."""
    if not rows:
        raise ReproError("no rows to serialize")
    if field_order is None:
        field_order = list(rows[0].keys())
    missing = [f for f in field_order if f not in rows[0]]
    if missing:
        raise ReproError(f"field(s) {missing} absent from first row")
    buffer = io.StringIO()
    buffer.write(",".join(field_order) + "\n")
    for row in rows:
        buffer.write(
            ",".join(str(row.get(field, "")) for field in field_order) + "\n"
        )
    return buffer.getvalue()
