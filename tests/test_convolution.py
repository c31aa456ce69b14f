"""Subset zeta/Moebius and subset convolution vs. the literal triple loop."""

import random

import pytest

from vcwidth.convolution import (MAX_UNIVERSE, STATS, SetFunction, convolve,
                                 zeta)

from genutil import identity, mobius, naive_convolve


def random_function(rng, s, lo=0, hi=50):
    return SetFunction(s, [rng.randrange(lo, hi) for _ in range(1 << s)])


def test_set_function_validation():
    with pytest.raises(ValueError):
        SetFunction(-1)
    with pytest.raises(ValueError):
        SetFunction(MAX_UNIVERSE + 1)
    with pytest.raises(ValueError):
        SetFunction(2, [1, 2, 3])  # needs 4 values
    assert SetFunction(0).values == [0]
    assert identity(2).values == [1, 0, 0, 0]


def test_zeta_of_empty_indicator_is_all_ones():
    f = identity(3)
    assert zeta(f).values == [1] * 8


def test_zeta_at_full_set_is_total_sum():
    rng = random.Random(1)
    for s in range(0, 7):
        f = random_function(rng, s)
        assert zeta(f).values[-1] == sum(f.values)


def test_mobius_inverts_zeta():
    rng = random.Random(2)
    for _ in range(40):
        s = rng.randrange(0, 9)
        f = random_function(rng, s, -20, 20)
        assert mobius(zeta(f)) == f
        assert zeta(mobius(f)) == f


def test_convolve_identity():
    rng = random.Random(3)
    for s in range(0, 8):
        f = random_function(rng, s)
        assert convolve(f, identity(s)) == f
    f = identity(2)
    assert convolve(f, f) == f


def test_convolve_all_ones():
    ones = SetFunction(2, [1, 1, 1, 1])
    # each W collects one term per submask: counts are 1, 2, 2, 4
    assert convolve(ones, ones).values == [1, 2, 2, 4]


def test_convolve_matches_naive():
    rng = random.Random(4)
    for s in range(1, 9):
        for _ in range(10):
            f = random_function(rng, s)
            g = random_function(rng, s)
            got = convolve(f, g)
            assert got.values == naive_convolve(f.values, g.values, s), \
                f"mismatch at s={s}"
            assert convolve(g, f) == got  # commutativity


def test_both_backends_agree():
    # the packed-int path and the literal triple loop on the larger
    # universes, one sample each: the triple loop is too slow for more
    rng = random.Random(5)
    for s in (9, 10, 11):
        f = random_function(rng, s)
        g = random_function(rng, s)
        assert convolve(f, g).values == naive_convolve(f.values, g.values, s)


def test_universe_mismatch():
    with pytest.raises(ValueError):
        convolve(SetFunction(2), SetFunction(3))


def test_convolve_is_exact_beyond_64_bits():
    # negative values and values near +-2^70: the packed lanes widen to fit
    rng = random.Random(6)
    near = 1 << 70
    for s in range(0, 11):
        for lo, hi in ((-50, 50), (near - 50, near + 50),
                       (-near - 50, -near + 50), (-near, near)):
            f = random_function(rng, s, lo, hi)
            g = random_function(rng, s, lo, hi)
            assert convolve(f, g).values == \
                naive_convolve(f.values, g.values, s), f"mismatch at s={s}"


def test_stats_counters():
    calls, cells = STATS["convolve_calls"], STATS["convolve_cells"]
    convolve(identity(3), identity(3))
    convolve(identity(4), identity(4))
    assert STATS["convolve_calls"] - calls == 2
    assert STATS["convolve_cells"] - cells == 8 + 16
