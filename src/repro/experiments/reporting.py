"""Plain-text rendering of experiment results (paper-style tables)."""

from __future__ import annotations

from typing import Any

__all__ = ["render_table", "pct_change"]


def pct_change(value: float, baseline: float) -> str:
    """The paper's "(−20%)" annotations relative to a baseline."""
    if baseline == 0:
        return "n/a"
    return f"{(value - baseline) / baseline * 100:+.0f}%"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render_table(title: str, rows: list[dict], columns: list[str] | None = None) -> str:
    """Render rows of dicts as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = columns or list(rows[0].keys())
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows)) for c in columns
    }
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "-" * len(header)
    lines = [title, sep, header, sep]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    lines.append(sep)
    return "\n".join(lines)
