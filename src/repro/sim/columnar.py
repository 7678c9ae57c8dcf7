"""Columnar (struct-of-arrays) bounded history for metric streams.

A fleet-quarter runs thousands of collectors, each retaining up to
100k step samples; holding those as dataclass instances in a deque
costs ~200 bytes per row in object headers and pointers.  A
:class:`ColumnarRing` stores each field in a typed numpy column —
8 bytes per value, no per-row objects — and materializes row objects
only when a consumer actually asks for them (``recent()``,
``tail_while()``, indexing), so the detectors keep seeing the same
dataclasses while the steady-state cost is a handful of array writes.

Columns grow geometrically up to the capacity and then wrap as a ring,
so a collector that only ever sees a few hundred samples never pays
for its 100k-row ceiling.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterator, List, Sequence, Tuple

import numpy as np

#: Rows allocated up front; columns double from here up to capacity.
_INITIAL_ROWS = 256


class ColumnarRing:
    """Bounded struct-of-arrays history with lazy row materialization.

    ``fields`` names the row attributes in column order; ``dtypes``
    gives one numpy dtype per field.  ``factory`` rebuilds a row object
    from positional field values (a dataclass like ``StepMetrics``
    works as-is).  Reads behave like a ``deque(maxlen=...)`` of those
    rows: ``len()``, (negative) indexing, iteration, ``recent()``
    (``list[-count:]``) and ``tail_while()``.
    """

    def __init__(self, maxlen: int, fields: Sequence[str],
                 dtypes: Sequence[Any], factory: Callable[..., Any]):
        if maxlen < 1:
            raise ValueError(f"maxlen must be positive: {maxlen}")
        if len(fields) != len(dtypes):
            raise ValueError("fields and dtypes must align")
        self.maxlen = maxlen
        self.fields: Tuple[str, ...] = tuple(fields)
        self.factory = factory
        if len(self.fields) == 1:
            only = operator.attrgetter(self.fields[0])
            self._getter = lambda row: (only(row),)
        else:
            self._getter = operator.attrgetter(*self.fields)
        alloc = min(maxlen, _INITIAL_ROWS)
        self._cols: List[np.ndarray] = [np.empty(alloc, dtype=d)
                                        for d in dtypes]
        self._alloc = alloc
        self._count = 0          # total rows ever appended

    # -- write path ----------------------------------------------------

    def append(self, row: Any) -> None:
        """Append one row object (fields read via attribute access)."""
        pos = self._count % self.maxlen
        if pos >= self._alloc:
            self._grow(pos)
        for col, value in zip(self._cols, self._getter(row)):
            col[pos] = value
        self._count += 1

    def _grow(self, needed: int) -> None:
        new_alloc = min(self.maxlen, max(self._alloc * 2, needed + 1))
        for i, col in enumerate(self._cols):
            grown = np.empty(new_alloc, dtype=col.dtype)
            grown[:self._alloc] = col
            self._cols[i] = grown
        self._alloc = new_alloc

    # -- read path -----------------------------------------------------

    def __len__(self) -> int:
        return min(self._count, self.maxlen)

    def _physical(self, logical: int) -> int:
        """Physical column index of logical row (0 = oldest)."""
        if self._count <= self.maxlen:
            return logical
        return (self._count + logical) % self.maxlen

    def _row(self, physical: int) -> Any:
        # .item() converts numpy scalars to plain Python values, so
        # materialized rows json-serialize and compare exactly like
        # the originals
        return self.factory(*(col[physical].item()
                              for col in self._cols))

    def __getitem__(self, index: int) -> Any:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("ColumnarRing index out of range")
        return self._row(self._physical(index))

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self._row(self._physical(i))

    def recent(self, count: int) -> List[Any]:
        """The last ``count`` rows, oldest first (``list[-count:]``)."""
        n = len(self)
        if count <= 0 or n == 0:
            return []
        start = max(0, n - count)
        return [self._row(self._physical(i)) for i in range(start, n)]

    def tail_while(self, predicate: Callable[[Any], bool]) -> List[Any]:
        """Longest suffix of rows all satisfying ``predicate``.

        Rows are materialized newest-first and only until the first
        non-match, so windowed queries over a monotone field stay
        O(window) in both time and rows built.
        """
        out: List[Any] = []
        for i in range(len(self) - 1, -1, -1):
            row = self._row(self._physical(i))
            if not predicate(row):
                break
            out.append(row)
        out.reverse()
        return out

    def column(self, field: str) -> np.ndarray:
        """Copy of one column's live values, oldest first.

        The bulk escape hatch for analytics that want arrays, not
        rows — e.g. a mean over the loss history without building
        100k ``StepMetrics``.
        """
        idx = self.fields.index(field)
        col = self._cols[idx]
        n = len(self)
        if self._count <= self.maxlen:
            return col[:n].copy()
        split = self._count % self.maxlen
        return np.concatenate([col[split:], col[:split]])
