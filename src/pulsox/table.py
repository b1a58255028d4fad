"""Tabular experiment output with reproducibility metadata.

Tables are rectangular, purely numeric, and carry a flat string metadata
block (resolved config echo plus code version).  Serialization is
deterministic, so re-running an experiment from the echoed config reproduces
the file byte for byte.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ResultTable"]


@dataclass(eq=False)
class ResultTable:
    """Column names, metadata and the body as one read-only float64 array
    ``values`` of shape (rows, columns), a fraction of the memory of lists of
    Python floats; ``rows`` and ``column`` build fresh lists from it."""

    columns: list[str]
    values: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        ncol = len(self.columns)
        rows = self.values
        if not isinstance(rows, np.ndarray) and any(len(r) != ncol for r in rows):
            raise ValueError("ragged row in result table")
        self.values = np.array(rows, dtype=float).reshape(len(rows), ncol)
        self.values.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return (self.columns == other.columns and self.metadata == other.metadata
                and np.array_equal(self.values, other.values))

    @property
    def rows(self) -> list[list[float]]:
        return self.values.tolist()

    def column(self, name: str) -> list[float]:
        return self.values[:, self.columns.index(name)].tolist()

    # -- CSV ---------------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.metadata):
            buf.write(f"# {key} = {self.metadata[key]}\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(map(repr, row) for row in self.rows)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        metadata: dict[str, str] = {}
        lines = []
        for line in text.splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                metadata[key] = value
            elif line.strip():
                lines.append(line)
        columns, *rows = csv.reader(lines)
        return cls(columns, [[float(v) for v in row] for row in rows], metadata)

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> str:
        payload = {"metadata": dict(sorted(self.metadata.items())),
                   "columns": self.columns, "rows": self.rows}
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown table format {fmt!r}")
