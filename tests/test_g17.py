"""The vectorised '%.17g' kernel against Python's own formatting, byte for byte."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from specstab._g17 import _RANGE, WIDTH, _digits, g17


def assert_matches_percent(values):
    values = np.asarray(values, dtype=float).ravel()
    lines = np.empty((values.size, WIDTH + 1), dtype=np.uint8)
    lines[:, :WIDTH] = g17(values)
    lines[:, WIDTH] = ord("\n")
    got = lines[lines != 0].tobytes().decode().splitlines()
    expected = ["%.17g" % x for x in values.tolist()]
    wrong = [(x, g, e) for x, g, e in zip(values.tolist(), got, expected) if g != e]
    assert len(got) == len(expected) and not wrong, wrong[:5]


def is_tie(v):
    """Whether the exact decimal value of v has 18 significant digits ending
    in 5, so that '%.17g' rounds a tie, half to even."""
    digits = Decimal(v).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def neighbours(values, steps=3):
    """Each value, its `steps` nearest doubles on either side, and their negatives."""
    out = []
    for v in values:
        up = down = v
        out.append(v)
        for _ in range(steps):
            up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
            out += [up, down]
    return np.concatenate([out, -np.array(out)])


def test_random_bit_patterns():
    # every 64-bit pattern is a double: all exponents, subnormals, inf and nan
    rng = np.random.default_rng(20)
    outside = ties = near = 0
    for _ in range(10):
        values = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64).view(np.float64)
        assert_matches_percent(values)
        fallback = ~_digits(values)[2]
        in_range = (np.abs(values) >= _RANGE[0]) & (np.abs(values) <= _RANGE[1])
        outside += int(np.count_nonzero(fallback & ~in_range))
        tie = [is_tie(v) for v in values[fallback & in_range].tolist()]
        ties, near = ties + sum(tie), near + tie.count(False)
    # outside the range every row falls back (about 12% of all patterns);
    # inside, the exact ties do (about 0.08%, mostly |v| in 1e13..1e16 with
    # a short binary fraction), and any other fraction within 1e-9 of 1/2,
    # about 2e-9 of the rows
    assert 100_000 < outside < 150_000
    assert 0 < ties < 2_000 and near <= 2


def test_edge_doubles():
    tiny = 5e-324
    specials = [0.0, -0.0, tiny, -tiny, 2 * tiny, 2.2250738585072014e-308,
                2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                math.inf, -math.inf, math.nan, -math.nan]
    subnormals = np.random.default_rng(3).integers(1, 2 ** 52, 1000).astype(np.uint64)
    assert_matches_percent(np.concatenate([specials, subnormals.view(np.float64),
                                           neighbours(list(_RANGE))]))


def test_powers_of_ten_and_their_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    # a few of these lie below 10^k and print as 1e+k: their digits carry to 10^17
    carried = [v for k, v in zip(range(-323, 309), powers)
               if _RANGE[0] <= v <= _RANGE[1] and Fraction(v) < Fraction(10) ** k
               and ("%.17g" % v).startswith("1e")]
    assert carried
    values = neighbours(powers)
    assert_matches_percent(values)
    # log10 misses the exponent by one at some of these, and the correction,
    # not the fallback, settles them
    in_range = values[(np.abs(values) >= _RANGE[0]) & (np.abs(values) <= _RANGE[1])]
    ties = np.array([is_tie(v) for v in in_range.tolist()])
    assert np.array_equal(~_digits(in_range)[2], ties)


def test_integers_near_the_digit_boundaries():
    near = [10.0 ** 16 + j for j in range(-60, 61)] + [10.0 ** 17 + 16 * j for j in range(-60, 61)]
    near += [2.0 ** 53 + j for j in range(-20, 21)] + [10.0 ** 15 + j / 8 for j in range(-60, 61)]
    assert_matches_percent(neighbours(near, steps=1))


def test_fixed_and_exponent_notation_at_every_exponent():
    # one value with 17 significant digits and one with a single digit at
    # each exponent, and trailing zeros of every length
    mantissas = [1.2345678901234567, 9.8765432109876543, 1.0, 5.0, 1.5, 1.25, 1.125,
                 1.0000000000000002, 9.9999999999999982]
    values = [m * 10.0 ** k for m in mantissas for k in range(-30, 31)]
    values += [12345678901234567.0 / 10 ** k for k in range(0, 22)]
    assert_matches_percent(neighbours(values, steps=1))


def test_exact_ties_round_half_to_even():
    # odd multiples of powers of 2, kept when they are ties
    rng = np.random.default_rng(7)
    ties = []
    while len(ties) < 400:
        v = float(rng.integers(1, 2 ** 30) * 2 + 1) * 2.0 ** int(rng.integers(-80, 29))
        if is_tie(v):
            ties.append(v)
    parities = {Decimal(v).as_tuple().digits[16] % 2 for v in ties}
    assert parities == {0, 1}
    in_range = [v for v in ties if _RANGE[0] <= abs(v) <= _RANGE[1]]
    assert not _digits(np.array(in_range))[2].any()  # every tie takes the fallback
    assert_matches_percent(ties + [-v for v in ties])


def _reduced(b1, b2):
    """A Lagrange-Gauss reduced basis of the integer lattice spanned by b1, b2."""
    def norm(v):
        return v[0] * v[0] + v[1] * v[1]
    while True:
        if norm(b1) > norm(b2):
            b1, b2 = b2, b1
        mu = round(Fraction(b1[0] * b2[0] + b1[1] * b2[1], norm(b1)))
        if mu == 0:
            return b1, b2
        b2 = (b2[0] - mu * b1[0], b2[1] - mu * b1[1])


def near_ties(E, k, width=Fraction(2, 10 ** 15)):
    """Doubles m 2^E (2^52 <= m < 2^53) whose scaled value y = m 2^E 10^k lies
    in [10^16, 10^17) within `width` of a half-integer, but not on it.

    With 2^E 10^k = A/B, these are the lattice points m (G, A F) - j (0, B F)
    near (1.5 2^52 G, B F / 2), the scales G and F making both coordinates'
    ranges alike: a reduced basis, Babai's rounding and a small neighbourhood.
    """
    ratio = Fraction(2) ** E * Fraction(10) ** k
    A, B = ratio.numerator, ratio.denominator
    if B % 2 or width * B < 1:  # no fraction that close to 1/2 but the tie
        return []
    G, F = round(width * B), 1 << 53
    b1, b2 = _reduced((G, A * F), (0, B * F))
    target = (G * 3 << 51, B // 2 * F)
    det = b1[0] * b2[1] - b1[1] * b2[0]
    c1 = round(Fraction(target[0] * b2[1] - target[1] * b2[0], det))
    c2 = round(Fraction(b1[0] * target[1] - b1[1] * target[0], det))
    found = []
    for i in range(c1 - 6, c1 + 7):
        for j in range(c2 - 6, c2 + 7):
            m, rest = divmod(i * b1[0] + j * b2[0], G)
            y = Fraction(m * A, B)
            off = y - math.floor(y) - Fraction(1, 2)
            if not rest and 2 ** 52 <= m < 2 ** 53 and 10 ** 16 <= y < 10 ** 17 \
                    and 0 < abs(off) <= width:
                found.append(m * 2.0 ** E)
    return found


def test_near_ties_fall_back():
    # doubles within 2e-15 of a rounding tie, where the product's error could
    # round them the wrong way; these three are among the 14,713 such values
    # over all exponents that a rounding without the window gets wrong
    values = [2.2134216087109993e-229, 7.862931575939347e-206, 4.421976605688792e-92]
    for E in range(-1022, 971, 7):
        low = math.floor((52 + E) * math.log10(2))
        values += [v for e10 in (low, low + 1) if abs(e10) <= 270
                   for v in near_ties(E, 16 - e10)]
    assert len(values) > 1000
    assert not _digits(np.array(values))[2].any()
    assert_matches_percent(values)


@pytest.mark.parametrize("size", [0, 1, 2, 4095, 4096, 4097, 9000])
def test_sizes_and_shapes(size):
    values = np.random.default_rng(size).normal(size=size) * 10.0 ** 3
    assert g17(values).shape == (size, WIDTH)
    assert_matches_percent(values)
    grid = values.reshape(-1, 1) if size else values
    assert np.array_equal(g17(grid), g17(values))
