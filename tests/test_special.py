"""Digamma/trigamma accuracy against a high-precision oracle.

The frozen values below were produced once with mpmath at 30 significant
digits (mp.digamma / mp.polygamma(1, .)) and pasted in, so the suite does
not depend on mpmath being importable at run time.  A live mpmath
cross-check runs as well when the package is present.

``special_digamma`` lives here rather than in ``ijcov.special``: no library
code reads digamma, but the trigamma checks (its derivative) and the
diagnostics and acceptance tests use it as an oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ijcov.special import special_trigamma

# B_{2n}/(2n) for 2n = 2..14: coefficients of x^{-2n} in the digamma series.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def special_digamma(x):
    """Digamma function Psi(x) for x > 0, elementwise on arrays.

    Upward recurrence psi(x) = psi(x + 1) - 1/x until x >= 10, then the
    Bernoulli-number asymptotic series (first neglected term about 5e-17 at
    x = 10); absolute error <= 1e-12 on the positive reals.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(arr > 0):
        raise ValueError("digamma requires x > 0")
    z = arr.copy()
    acc = np.zeros_like(z)
    # x > 0 implies at most ceil(10) = 10 unit shifts are ever needed.
    for _ in range(10):
        low = z < 10.0
        if not low.any():
            break
        acc[low] -= 1.0 / z[low]
        z[low] += 1.0
    inv2 = 1.0 / (z * z)
    tail = np.zeros_like(z)
    for c in reversed(_DIGAMMA_COEFFS):
        tail = (tail + c) * inv2
    out = acc + np.log(z) - 0.5 / z - tail
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


# (x, mpmath digamma(x)) at 30 dps, rounded to float64.
DIGAMMA_ORACLE = [
    (0.003, -333.9056249854075),
    (0.1, -10.423754940411078),
    (0.5, -1.9635100260214235),
    (1.0, -0.5772156649015329),
    (1.5, 0.03648997397857652),
    (2.0, 0.42278433509846713),
    (5.25, 1.5599773364075455),
    (9.99, 2.250700372831201),
    (10.0, 2.251752589066721),
    (47.3, 3.845902225194359),
    (400.0, 5.990214026274974),
    (1000000.0, 13.815510057964191),
]

# (x, mpmath polygamma(1, x)) at 30 dps, rounded to float64.
TRIGAMMA_ORACLE = [
    (0.003, 111112.7488619477),
    (0.1, 101.43329915079276),
    (0.5, 4.934802200544679),
    (1.0, 1.6449340668482264),
    (1.5, 0.9348022005446793),
    (2.0, 0.6449340668482264),
    (5.25, 0.20976041229725417),
    (9.99, 0.10527695014824179),
    (10.0, 0.10516633568168575),
    (47.3, 0.02136670851489361),
    (400.0, 0.0025031276041634115),
    (1000000.0, 1.0000005000001667e-06),
]


class TestOracleValues:
    @pytest.mark.parametrize("x,expected", DIGAMMA_ORACLE)
    def test_digamma_matches_oracle(self, x, expected):
        # absolute tolerance 1e-12 except near the pole at 0 where the
        # function itself is ~1e2..1e5 and relative accuracy is what counts
        tol = 1e-12 * max(1.0, abs(expected))
        assert abs(special_digamma(x) - expected) <= tol

    @pytest.mark.parametrize("x,expected", TRIGAMMA_ORACLE)
    def test_trigamma_matches_oracle(self, x, expected):
        tol = 1e-12 * max(1.0, abs(expected))
        assert abs(special_trigamma(x) - expected) <= tol

    def test_euler_mascheroni(self):
        assert special_digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-13)

    def test_trigamma_one_is_pi_squared_over_six(self):
        assert special_trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-13)

    def test_live_mpmath_cross_check(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        rng = np.random.default_rng(1)
        xs = np.concatenate([rng.uniform(0.01, 2.0, 25), rng.uniform(2.0, 500.0, 25)])
        for x in xs:
            want_d = float(mp.digamma(mp.mpf(repr(float(x)))))
            want_t = float(mp.polygamma(1, mp.mpf(repr(float(x)))))
            assert special_digamma(x) == pytest.approx(want_d, abs=1e-12 * max(1, abs(want_d)))
            assert special_trigamma(x) == pytest.approx(want_t, abs=1e-12 * max(1, abs(want_t)))


class TestRecurrence:
    def test_digamma_recurrence_grid(self):
        """psi(x+1) - psi(x) = 1/x on a grid spanning both code paths."""
        xs = np.concatenate([np.linspace(0.05, 9.95, 199), np.linspace(10.5, 200.0, 80)])
        for x in xs:
            assert special_digamma(x + 1.0) - special_digamma(x) == pytest.approx(
                1.0 / x, abs=1e-13 * max(1.0, 1.0 / x)
            )

    def test_trigamma_recurrence_grid(self):
        """psi1(x+1) - psi1(x) = -1/x^2."""
        xs = np.linspace(0.05, 150.0, 300)
        for x in xs:
            assert special_trigamma(x + 1.0) - special_trigamma(x) == pytest.approx(
                -1.0 / x**2, abs=1e-12 * max(1.0, 1.0 / x**2)
            )

    def test_trigamma_is_derivative_of_digamma(self):
        # central difference; h chosen so truncation ~1e-9 dominates rounding
        for x in (0.7, 3.3, 12.0, 88.0):
            h = 1e-5 * max(1.0, x)
            fd = (special_digamma(x + h) - special_digamma(x - h)) / (2 * h)
            assert special_trigamma(x) == pytest.approx(fd, rel=1e-7)


class TestDomain:
    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            special_digamma(bad)
        with pytest.raises(ValueError):
            special_trigamma(bad)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.2, 1.0, 7.7, 42.0])
        np.testing.assert_allclose(
            special_digamma(xs), [special_digamma(float(x)) for x in xs], rtol=0, atol=0
        )
        np.testing.assert_allclose(
            special_trigamma(xs), [special_trigamma(float(x)) for x in xs], rtol=0, atol=0
        )


@given(st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_digamma_monotone_increasing(x):
    assert special_digamma(x + 0.5) > special_digamma(x)


@given(st.floats(min_value=0.01, max_value=1e5, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_trigamma_positive_and_decreasing(x):
    t = special_trigamma(x)
    assert t > 0
    assert special_trigamma(x + 0.5) < t
