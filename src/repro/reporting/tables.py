"""ASCII table rendering for experiment output."""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def _stringify(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


class Table:
    """A simple left-aligned ASCII table.

    >>> t = Table(["name", "value"], title="demo")
    >>> t.add_row(["alpha", 1.25])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    demo
    name  | value
    ------+------
    alpha | 1.25
    """

    def __init__(self, columns: Sequence[str], title: str | None = None) -> None:
        self.columns = [str(c) for c in columns]
        self.title = title
        self.rows: list[list[str]] = []

    def add_row(self, row: Iterable[Any]) -> None:
        """Append one row; cells are stringified on insertion."""
        cells = [_stringify(cell) for cell in row]
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns")
        self.rows.append(cells)

    def render(self) -> str:
        """Return the table as a printable string."""
        widths = [len(col) for col in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_line(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(widths[i])
                              for i, cell in enumerate(cells)).rstrip()

        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(fmt_line(self.columns))
        lines.append("-+-".join("-" * w for w in widths))
        lines.extend(fmt_line(row) for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
