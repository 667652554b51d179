"""Plain-text rendering of tables and bar charts.

The paper's artifacts are figures; in a terminal-only reproduction the
benches print aligned tables and ASCII bar charts instead.  Rendering is
deliberately dependency-free and deterministic so bench output can be
diffed across runs.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = ["render_table", "render_grouped_bars"]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 *, title: str = "") -> str:
    """Render an aligned text table.

    Floats are shown with three decimals; everything else via ``str``.

    Args:
        headers: column names.
        rows: table body; every row must match the header length.
        title: optional heading printed above the table.

    Raises:
        ConfigurationError: on ragged rows.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    text_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row of {len(row)} cells does not match "
                f"{len(headers)} headers"
            )
        text_rows.append([fmt(c) for c in row])

    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("  ".join("-" * w for w in widths))
    parts.extend(line(r) for r in text_rows)
    return "\n".join(parts)


def render_grouped_bars(labels: Sequence[str],
                        series: Mapping[str, Sequence[float]], *,
                        width: int = 40, title: str = "") -> str:
    """Render grouped bars (one group per label, one bar per series).

    This is the shape of the paper's Figures 4 and 5: benchmarks on the
    x-axis, one bar per policy/variant.

    Raises:
        ConfigurationError: when a series' length differs from the labels,
            or a value is negative.
    """
    for name, values in series.items():
        if len(values) != len(labels):
            raise ConfigurationError(
                f"series {name!r} has {len(values)} values for "
                f"{len(labels)} labels"
            )
        if any(v < 0 for v in values):
            raise ConfigurationError(
                f"series {name!r}: bar values cannot be negative"
            )
    peak = max((v for vs in series.values() for v in vs), default=0.0)
    name_w = max((len(n) for n in series), default=0)
    label_w = max((len(l) for l in labels), default=0)
    parts: List[str] = [title] if title else []
    for i, label in enumerate(labels):
        parts.append(label.ljust(label_w))
        for name, values in series.items():
            v = values[i]
            bar = "#" * (int(round(v / peak * width)) if peak else 0)
            parts.append(f"  {name.ljust(name_w)} | {bar} {v:.3f}")
    return "\n".join(parts)
