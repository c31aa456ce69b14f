"""The subset zeta transform and subset convolution over (+, *).

A SetFunction is a dense table over the 2^s subsets of {0..s-1}, indexed by
bitmask. convolve(f, g)[W] = sum over V subset of W of f[V] * g[W \\ V],
computed with the ranked-transform algorithm (Björklund, Husfeldt, Kaski,
Koivisto, "Fourier meets Möbius", STOC 2007) in O(2^s * s) operations on
packed integers instead of the naive O(3^s).

Each cell's rank vector is packed into one Python int, rank r at bit
width * r (a Kronecker substitution), so the ranked zeta and Möbius
transforms are int additions and subtractions across cells and the rank
product is one int multiplication per cell. After the Möbius transform the
lanes below |W| of cell W are exactly zero, and lane |W| holds the answer,
which is at most max|f| * max|g| * 2^s in absolute value; `width` leaves a
sign bit above that, so the lane decodes exactly for any integer inputs,
negative or beyond 64 bits. Universes are capped at s = 30.

STATS counts convolve calls and output cells across the process;
treewidth_vc_3k reports the difference over one solve.
"""

from __future__ import annotations

from operator import add, lshift, mul, sub

MAX_UNIVERSE = 30

STATS = {"convolve_calls": 0, "convolve_cells": 0}


class SetFunction:
    """An integer-valued function on subsets of a universe of size s."""

    __slots__ = ("s", "values")

    def __init__(self, s, values=None):
        if not (0 <= s <= MAX_UNIVERSE):
            raise ValueError(f"universe size {s} outside 0..{MAX_UNIVERSE}")
        size = 1 << s
        if values is None:
            values = [0] * size
        else:
            values = list(values)
            if len(values) != size:
                raise ValueError(f"expected {size} values, got {len(values)}")
        self.s = s
        self.values = values

    def max_abs(self):
        return max(map(abs, self.values), default=0)

    def __eq__(self, other):
        return (isinstance(other, SetFunction)
                and self.s == other.s and list(self.values) == list(other.values))

    def __repr__(self):
        return f"SetFunction(s={self.s}, values={list(self.values)})"


def _transform(values, s, op):
    """Subset-sum (op = add) or Möbius (op = sub) transform of a 2^s table.

    Each pass replaces every cell W with bit 0 set by op(cell W, cell
    W - {0}) and moves the cells with bit 0 set behind the others, which
    rotates every index right by one bit; after s passes each bit has been
    bit 0 once and the indices are back in place.
    """
    for _ in range(s):
        even = values[0::2]
        values = even + list(map(op, values[1::2], even))
    return values


def zeta(f):
    """Subset sums: zeta(f)[W] = sum of f[V] over V subset of W."""
    return SetFunction(f.s, _transform(f.values, f.s, add))


def convolve(f, g):
    """Subset convolution of two SetFunctions on the same universe."""
    s = f.s
    if s != g.s:
        raise ValueError(f"universe mismatch: {s} vs {g.s}")
    STATS["convolve_calls"] += 1
    STATS["convolve_cells"] += 1 << s
    width = ((f.max_abs() * g.max_abs()) << s).bit_length() + 1
    shifts = [width * w.bit_count() for w in range(1 << s)]
    fz = _transform(list(map(lshift, f.values, shifts)), s, add)
    gz = _transform(list(map(lshift, g.values, shifts)), s, add)
    h = _transform(list(map(mul, fz, gz)), s, sub)
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    return SetFunction(s, [(((v >> r) + half) & mask) - half
                           for v, r in zip(h, shifts)])
