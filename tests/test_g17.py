"""format_g17 against Python's '%.17g', value by value."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dnls_ist.g17 import WIDTH, format_g17


def mismatches(values, block=1 << 16):
    """The values whose format_g17 text is not '%.17g' % v, with both texts."""
    values = np.asarray(values, dtype=float).ravel()
    found = []
    for start in range(0, values.size, block):
        part = values[start:start + block]
        records = format_g17(part)
        assert records.shape == (part.size, WIDTH) and not records[:, -1].any()
        records[:, -1] = ord("\n")
        got = records.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
        want = ["%.17g" % v for v in part.tolist()]
        if got != want:
            found += [(v, g, w) for v, g, w in zip(part.tolist(), got, want) if g != w]
    return found


def fixed_doubles():
    """Over a million doubles: every binade of the fast range 1e-4 <= |v| < 1e16 in
    both signs, exact ties at the 17th digit, powers of ten and the range ends
    +-1 ulp, and zeros, subnormals, the largest doubles, infinities and NaN."""
    rng = np.random.default_rng(20240)
    # 2**-14 < 1e-4 and 2**53 < 1e16 < 2**54: every binade that meets the range
    binades = np.ldexp(1.0 + rng.random((68, 6600)), np.arange(-14, 54)[:, None]).ravel()
    # n + k / 2**j with 18 - j integer digits and k odd: 18 significant digits
    # ending in 5, a tie halfway between two 17-digit neighbours
    ties = [np.array([1234567890123456.25, 1234567890123456.75])]
    for j in range(2, 11):
        n = rng.integers(10 ** (17 - j), 2 * 10 ** (17 - j), 4000)
        k = 2 * rng.integers(0, 2 ** (j - 1), n.size) + 1
        ties.append(n + k / 2.0 ** j)
    ties = np.concatenate(ties)
    edges = 10.0 ** np.arange(-8, 24)
    ulps = [np.nextafter(x, d) for x in (edges, 9.5 * edges) for d in (0.0, np.inf)]
    steps = [np.nextafter(x, 0.0) for x in (1e-4, 1e16)]
    ends = np.concatenate([[1e-4, 1e16], steps, [np.nextafter(x, np.inf) for x in (1e-4, 1e16)]])
    special = np.array([0.0, 5e-324, 2.2250738585072014e-308, 2.2250738585072009e-308,
                        1e-310, 1.7976931348623157e308, np.inf, 1e300, 1e22, 1e23])
    # random bit patterns: mostly outside the range, where '%' formats them
    bits = rng.integers(0, 2 ** 63, 40_000, dtype=np.int64).view(float)
    unsigned = np.concatenate([binades, ties, edges, *ulps, ends, special, bits])
    values = np.concatenate([unsigned, -unsigned, [np.nan]])
    assert values.size > 1_000_000
    return values


def test_a_million_fixed_doubles():
    assert mismatches(fixed_doubles()) == []


def test_negative_zero_and_nan():
    assert mismatches([-0.0, 0.0, math.nan, -math.inf]) == []
    assert format_g17(-0.0).tobytes().translate(None, b"\0") == b"-0"


def test_shape_and_empty():
    values = np.arange(6.0).reshape(2, 3) / 7.0
    assert format_g17(values).shape == (2, 3, WIDTH)
    assert format_g17(np.empty((0, 4))).shape == (0, 4, WIDTH)
    assert format_g17(1.0 / 3.0).tobytes().translate(None, b"\0") == b"0.33333333333333331"


@given(arrays(np.float64, st.integers(1, 40), elements=st.floats(width=64)))
def test_any_doubles(values):
    assert mismatches(values) == []


@given(arrays(np.float64, st.integers(1, 40),
              elements=st.floats(1e-4, 1e16, exclude_max=True)))
def test_the_fast_range(values):
    assert mismatches(np.concatenate([values, -values])) == []


@pytest.mark.parametrize("k", range(-4, 16))
def test_below_each_power_of_ten(k):
    # the digits never round up to the next power of ten: the doubles are too far apart
    below = np.nextafter(10.0 ** k, 0.0) * np.array([1.0, -1.0])
    assert mismatches(below) == []
