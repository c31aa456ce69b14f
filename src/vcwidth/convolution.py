"""The subset zeta transform and subset convolution over (+, *).

A SetFunction is a dense table over the 2^s subsets of {0..s-1}, indexed by
bitmask. convolve(f, g)[W] = sum over V subset of W of f[V] * g[W \\ V],
computed with the ranked-transform algorithm in O(2^s * s^2) element
operations instead of the naive O(3^s).

Arithmetic contract: intermediate ranked values can be as large as
max|f| * max|g| * (s+1) * 4^s; callers must keep that inside signed 64 bits
(the large-universe backend is numpy int64, which would wrap silently, so the
bound is enforced up front with an explicit OverflowError). Universes are
capped at s = 30. numpy is imported on the first convolution of a universe
of size 10 or more, so importing this module does not load it.

STATS counts convolve calls and output cells; the layered treewidth solver's
operation accounting reads it.
"""

from __future__ import annotations

MAX_UNIVERSE = 30
_NUMPY_MIN_S = 10  # below this, plain lists beat array overhead

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
        return max((abs(v) for v in self.values), default=0)

    def __eq__(self, other):
        return (isinstance(other, SetFunction)
                and self.s == other.s and list(self.values) == list(other.values))

    def __repr__(self):
        return f"SetFunction(s={self.s}, values={list(self.values)})"


def zeta(f):
    """Subset sums: zeta(f)[W] = sum of f[V] over V subset of W."""
    out = list(f.values)
    size = 1 << f.s
    for i in range(f.s):
        bit = 1 << i
        for w in range(size):
            if w & bit:
                out[w] += out[w ^ bit]
    return SetFunction(f.s, out)


def _check_overflow(f, g):
    s = f.s
    bound = f.max_abs() * g.max_abs() * (s + 1) << (2 * s)
    if bound >= 1 << 63:
        raise OverflowError(
            "subset convolution may exceed signed 64-bit intermediates: "
            f"max|f|*max|g|*(s+1)*4^s = {bound} >= 2^63")


def _popcounts(s):
    import numpy as np

    pc = np.zeros(1 << s, dtype=np.int64)
    for i in range(s):
        pc[(np.arange(1 << s) >> i) & 1 == 1] += 1
    return pc


def _convolve_numpy(f, g):
    import numpy as np

    s = f.s
    size = 1 << s
    pc = _popcounts(s)
    idx = np.arange(size)
    fr = np.zeros((s + 1, size), dtype=np.int64)
    gr = np.zeros((s + 1, size), dtype=np.int64)
    fr[pc, idx] = np.asarray(f.values, dtype=np.int64)
    gr[pc, idx] = np.asarray(g.values, dtype=np.int64)
    shape = (s + 1,) + (2,) * s
    fr = fr.reshape(shape)
    gr = gr.reshape(shape)
    for axis in range(1, s + 1):  # ranked zeta
        lo = [slice(None)] * (s + 1)
        hi = [slice(None)] * (s + 1)
        lo[axis], hi[axis] = 0, 1
        fr[tuple(hi)] += fr[tuple(lo)]
        gr[tuple(hi)] += gr[tuple(lo)]
    fr = fr.reshape(s + 1, size)
    gr = gr.reshape(s + 1, size)
    hr = np.zeros((s + 1, size), dtype=np.int64)
    for r in range(s + 1):
        acc = hr[r]
        for i in range(r + 1):
            acc += fr[i] * gr[r - i]
    hr = hr.reshape(shape)
    for axis in range(1, s + 1):  # ranked Moebius
        lo = [slice(None)] * (s + 1)
        hi = [slice(None)] * (s + 1)
        lo[axis], hi[axis] = 0, 1
        hr[tuple(hi)] -= hr[tuple(lo)]
    hr = hr.reshape(s + 1, size)
    return [int(v) for v in hr[pc, idx]]


def _convolve_python(f, g):
    s = f.s
    size = 1 << s
    counts = [w.bit_count() for w in range(size)]
    fr = [[0] * size for _ in range(s + 1)]
    gr = [[0] * size for _ in range(s + 1)]
    for w in range(size):
        fr[counts[w]][w] = f.values[w]
        gr[counts[w]][w] = g.values[w]
    for table in fr + gr:
        for i in range(s):
            bit = 1 << i
            for w in range(size):
                if w & bit:
                    table[w] += table[w ^ bit]
    out = [0] * size
    for r in range(s + 1):
        acc = [0] * size
        for i in range(r + 1):
            fi = fr[i]
            gi = gr[r - i]
            for w in range(size):
                acc[w] += fi[w] * gi[w]
        # Moebius of rank r, evaluated only where |W| = r
        for i in range(s):
            bit = 1 << i
            for w in range(size):
                if w & bit:
                    acc[w] -= acc[w ^ bit]
        for w in range(size):
            if counts[w] == r:
                out[w] = acc[w]
    return out


def convolve(f, g):
    """Subset convolution of two SetFunctions on the same universe."""
    if f.s != g.s:
        raise ValueError(f"universe mismatch: {f.s} vs {g.s}")
    _check_overflow(f, g)
    STATS["convolve_calls"] += 1
    STATS["convolve_cells"] += 1 << f.s
    if f.s >= _NUMPY_MIN_S:
        values = _convolve_numpy(f, g)
    else:
        values = _convolve_python(f, g)
    return SetFunction(f.s, values)
