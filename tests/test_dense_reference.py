"""Checks of the dense reference route's own quadrature."""

import math

import numpy as np

from dense_reference import cumulative_simpson


def test_cumulative_simpson_pairwise_cubic_exactness_and_odd_fallback():
    t = np.linspace(0.0, 2.0, 11)
    h = t[1] - t[0]
    y = t ** 3 - 2.0 * t
    exact = t ** 4 / 4.0 - t ** 2
    got = cumulative_simpson(y, h)
    # Simpson pairs are exact on cubics; interleaved half-pair points carry
    # the usual O(h^4) parabola remainder
    np.testing.assert_allclose(got[::2], exact[::2], atol=1e-13)
    np.testing.assert_allclose(got[1::2], exact[1::2], atol=h ** 4)
    # an odd interval count takes the forward parabola on the first interval,
    # exact on quadratics at every point (its order: the next test)
    t = np.linspace(0.0, 1.4, 8)
    got = cumulative_simpson(3.0 * t ** 2 - t + 2.0, t[1] - t[0])
    np.testing.assert_allclose(got, t ** 3 - t ** 2 / 2.0 + 2.0 * t, rtol=0, atol=1e-14)
    np.testing.assert_allclose(cumulative_simpson(np.ones(4), 0.5), [0.0, 0.5, 1.0, 1.5],
                               atol=1e-14)


def test_simpson_convergence_order():
    # fourth order at either parity of the interval count
    a = 1.3
    exact = 0.5 * 3.0 - math.sin(a * 3.0) / (2 * a)
    for counts in ((200, 400), (201, 401)):
        errs = []
        for n in counts:
            t = np.linspace(0.0, 3.0, n + 1)
            y = np.sin(a * t / 2.0) ** 2
            errs.append(abs(cumulative_simpson(y, t[1] - t[0])[-1] - exact))
        assert math.log2(errs[0] / errs[1]) >= 3.5, counts
