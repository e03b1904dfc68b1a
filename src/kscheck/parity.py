"""Linear systems over GF(2), the one solver behind every parity argument.

A row ``(mask, rhs)`` over variables 0..n-1 asks that the bits of the
variables in ``mask`` add up to ``rhs``, bit 1 standing for the value -1.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Rows per chunk when a listing is turned into tuples or written out.
CHUNK_ROWS = 256


def bits(mask: int):
    """The set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _echelon(rows: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int]] | None:
    """The rows in echelon form, keyed by pivot, or None if they have no solution.

    Gaussian elimination reduces each row on its highest variable until that
    variable is no other row's pivot, and keeps it under that pivot.  A row
    that reduces to 0 with rhs 1 is a contradiction.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for row, rhs in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, rhs)
                break
            pivot_row, pivot_rhs = pivots[top]
            row ^= pivot_row
            rhs ^= pivot_rhs
        else:
            if rhs:
                return None
    return pivots


def solutions(n: int, rows: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Every solution as a ±1 tuple, lexicographically (+1 before -1), or () if none.

    Every echelon row's other variables lie below its pivot, so walking the
    variables from 0 upward a free one takes +1 and then -1, and a pivot is
    forced by those already assigned: no branch dies.  The walk keeps each
    partial assignment as a bit mask, and ``CHUNK_ROWS`` masks at a time
    become ±1 tuples, so no full-length variable column is ever built.
    """
    pivots = _echelon(rows)
    if pivots is None:
        return ()
    masks = [0]
    for v in range(n):
        bit = 1 << v
        if v in pivots:
            row, rhs = pivots[v]
            masks = [x | bit if (row & x).bit_count() & 1 != rhs else x for x in masks]
        else:
            # each mask, then the same mask with v at -1
            doubled = masks * 2
            doubled[::2] = masks
            doubled[1::2] = [x | bit for x in masks]
            masks = doubled
    listing: list[tuple[int, ...]] = []
    for start in range(0, len(masks), CHUNK_ROWS):
        chunk = masks[start : start + CHUNK_ROWS]
        listing += zip(*[[-1 if x >> v & 1 else 1 for x in chunk] for v in range(n)])
    return tuple(listing) if n else ((),)


def first_solution(n: int, rows: Iterable[tuple[int, int]]) -> tuple[int, ...] | None:
    """The first solution ``solutions`` lists, every free variable at +1, or None."""
    pivots = _echelon(rows)
    if pivots is None:
        return None
    x = 0
    for v in sorted(pivots):
        row, rhs = pivots[v]
        if (row & x).bit_count() & 1 != rhs:
            x |= 1 << v
    return tuple(-1 if x >> v & 1 else 1 for v in range(n))


def least_violated(n: int, rows: Sequence[tuple[int, int]]) -> int:
    """The least number of rows any assignment violates: the least weight
    over b + Im(A), b the right-hand sides and A the row-by-variable
    incidence matrix, found in 2^rank cases by a Gray walk over a basis
    of Im(A)."""
    # column v: the rows that flipping variable v moves in or out of their rhs
    columns = (sum(1 << j for j, (mask, _) in enumerate(rows) if mask >> v & 1) for v in range(n))
    basis = [column for column, _ in _echelon((c, 0) for c in columns).values()]
    # the sums of the first ten basis vectors are tabled, the rest Gray-walked
    table = [0]
    for column in basis[:10]:
        table += [x ^ column for x in table]
    violated, best = sum(rhs << j for j, (_, rhs) in enumerate(rows)), len(rows)
    for i in range(1 << len(basis[10:])):
        if i:
            violated ^= basis[9 + (i & -i).bit_length()]
        best = min(best, *map(int.bit_count, map(violated.__xor__, table)))
    return best
