"""Lightweight result tables: construction, text rendering, CSV export.

Every experiment driver returns a :class:`Table`; the bench harness prints
it in the same row layout the paper uses, so paper-vs-measured comparison
is a visual diff.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

__all__ = ["Table"]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") if value == value else "nan"
    return str(value)


@dataclass
class Table:
    """A titled grid of results."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> "Table":
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells but the table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))
        return self

    def column(self, name: str) -> List[object]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in {self.columns}") from None
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        cells = [self.columns] + [[_fmt(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
        lines.append(sep)
        for row in cells[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self, path: Optional[str | Path] = None) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def __str__(self) -> str:
        return self.render()
