"""ASCII bar charts for the experiment drivers.

The paper's figures are bar charts; these helpers render the same data
as unicode bars so a terminal run of an experiment driver produces a
directly comparable picture.
"""

from __future__ import annotations

from typing import Sequence

#: width in character cells of the longest bar
BAR_WIDTH = 40


def _bar(value: float, scale: float) -> str:
    cells = 0 if scale == 0 else round(abs(value) / scale * BAR_WIDTH)
    return ("-" if value < 0 else "+") * max(cells, 0)


def bar_chart(labels: Sequence[str], values: Sequence[float],
              fmt=lambda v: f"{v:+.1%}") -> str:
    """Horizontal bar chart: one row per (label, value).

    Negative values render with ``-`` bars, positive with ``+`` bars, so
    the sign structure of a figure (which configurations regress) is
    visible at a glance.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        return "<empty>"
    scale = max(abs(v) for v in values) or 1.0
    label_width = max(len(label) for label in labels)
    rows = [
        f"{label.ljust(label_width)} {fmt(value):>8} "
        f"{_bar(value, scale)}"
        for label, value in zip(labels, values)
    ]
    return "\n".join(rows)

