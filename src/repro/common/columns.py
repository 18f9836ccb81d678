"""Flat column storage helpers.

Hot per-op state (compiled trace ops, bank timings) is held as flat
parallel columns — ``array.array`` / ``bytes`` — instead of one Python
object per element.  A column of machine ints is a single contiguous
buffer: bulk reductions over it (counts, sums, minima) run in C, and
the per-element memory drops from a boxed object to 1–8 bytes.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

__all__ = [
    "int_column",
    "count_byte",
    "masked_count",
    "sum_compute_instructions",
]


def int_column(values: Iterable[int]) -> array:
    """A signed 64-bit flat column (``array('q')``) over ``values``."""
    return array("q", values)


def count_byte(column: bytes, code: int) -> int:
    """Occurrences of ``code`` in a byte column (C-speed)."""
    return column.count(code)


def masked_count(column: bytes, code: int, mask: bytes) -> int:
    """Count positions where ``column == code`` and ``mask`` is nonzero."""
    return sum(1 for x, y in zip(column, mask) if x == code and y)


def sum_compute_instructions(kinds: bytes, counts: Sequence[int],
                             compute_kind: int) -> int:
    """Dynamic instruction total over parallel (kinds, counts) columns:
    ``counts[i]`` where ``kinds[i] == compute_kind``, else 1 per op.

    This is ``Trace.instructions`` over the compiled columns — called
    once per result collection, over 10⁴–10⁶ ops.
    """
    n = len(kinds)
    compute_ops = kinds.count(compute_kind)
    if compute_ops == 0:
        return n
    total = n - compute_ops
    for i, kind in enumerate(kinds):
        if kind == compute_kind:
            total += counts[i]
    return total
