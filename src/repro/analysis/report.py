"""Plain-text rendering of results.

The benchmark harness and the CLI print the reproduced tables/figures as
aligned text so that a run's output can be pasted straight into
EXPERIMENTS.md.  Only standard-library string formatting is used.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

from ..errors import AnalysisError
from ..scenarios.results import ScenarioResult
from .figures import FigureSeries
from .metrics import improvement_percent

__all__ = [
    "format_table",
    "render_runtime_table",
    "render_figure_series",
    "render_comparison",
]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], *, indent: str = ""
) -> str:
    """Render rows as a fixed-width text table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(indent + header_line)
    lines.append(indent + "  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            indent + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_runtime_table(
    results: Mapping[str, ScenarioResult], *, title: str = ""
) -> str:
    """Per-VM/run running times, one column per policy (Figures 3/5/9)."""
    policies = list(results)
    if not policies:
        return "(no results)"
    # Collect the (vm, run) row labels from the first result.
    first = results[policies[0]]
    row_keys: List[tuple[str, int]] = []
    for vm_name in first.vm_names():
        for run in first.vm(vm_name).runs:
            row_keys.append((vm_name, run.run_index))

    headers = ["VM/run"] + policies
    rows = []
    for vm_name, run_index in row_keys:
        row: List[object] = [f"{vm_name}/run{run_index + 1}"]
        for policy in policies:
            result = results[policy]
            try:
                value = f"{result.runtime_of(vm_name, run_index):.1f}s"
            except AnalysisError:
                value = "-"
            row.append(value)
        rows.append(row)
    body = format_table(headers, rows)
    return f"{title}\n{body}" if title else body


def render_figure_series(
    series: Mapping[str, FigureSeries], *, max_points: int = 12, title: str = ""
) -> str:
    """Render time series (Figures 4/6/8/10) as a down-sampled text table."""
    lines = [title] if title else []
    for name, fig in series.items():
        n = len(fig.x)
        if n == 0:
            lines.append(f"{name}: (empty)")
            continue
        step = max(1, n // max_points)
        points = ", ".join(
            f"({fig.x[i]:.0f}s, {fig.y[i]:.0f})" for i in range(0, n, step)
        )
        lines.append(f"{fig.label}: {points}")
    return "\n".join(lines)


def render_comparison(
    results: Mapping[str, ScenarioResult],
    *,
    baseline: str,
    vm_name: str,
    run_index: int = 0,
) -> str:
    """Percent improvement of every policy over *baseline* for one VM/run."""
    if baseline not in results:
        return f"(baseline {baseline!r} missing)"
    base = results[baseline].runtime_of(vm_name, run_index)
    rows = []
    for policy, result in results.items():
        if policy == baseline:
            continue
        measured = result.runtime_of(vm_name, run_index)
        rows.append(
            [policy, f"{measured:.1f}s", f"{improvement_percent(base, measured):+.1f}%"]
        )
    return format_table(
        ["policy", f"{vm_name}/run{run_index + 1}", f"vs {baseline}"], rows
    )
