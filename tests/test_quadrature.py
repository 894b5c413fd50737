import math

import numpy as np

from jcdamp.quadrature import (
    _simpson_nodes,
    simpson_adaptive,
    simpson_adaptive_vec,
    simpson_fixed,
    triangle_double_integral,
)


def test_simpson_polynomial_exact():
    # Simpson integrates cubics exactly
    val = simpson_fixed(lambda x: x ** 3 - 2 * x, 0.0, 2.0, 1)
    assert abs(val - (4.0 - 4.0)) < 1e-14


def test_simpson_fixed_uses_the_shared_node_rule():
    # the scalar rule and the vectorized rule weight the same nodes
    f = lambda x: np.exp(1j * 1.7 * x) * np.cos(0.4 * x)
    for n_panels in (1, 5, 64):
        nodes, weights = _simpson_nodes(-0.3, 2.1, n_panels)
        want = np.dot(f(nodes), weights)
        got = simpson_fixed(f, -0.3, 2.1, n_panels)
        assert abs(got - want) < 1e-15 * max(1.0, abs(want))


def test_simpson_adaptive_oscillatory():
    val = simpson_adaptive(lambda x: np.exp(1j * 3 * x), 0.0, 2.0, tol=1e-12)
    want = (np.exp(6j) - 1.0) / 3j
    assert abs(val - want) < 1e-11


def test_simpson_adaptive_matrix_valued():
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    val = simpson_adaptive(lambda t: np.cos(t) * m, 0.0, math.pi / 2, tol=1e-12)
    assert np.max(np.abs(val - m)) < 1e-11


def test_simpson_vec_matches_scalar():
    f = lambda x: np.sin(2.2 * x) * np.exp(-0.3 * x)
    a = simpson_adaptive(lambda x: complex(f(x)), 0.0, 3.0, tol=1e-12)
    b = simpson_adaptive_vec(f, 0.0, 3.0, tol=1e-12)
    assert abs(complex(a) - complex(b)) < 1e-11


def test_zero_width_interval():
    assert simpson_adaptive(lambda x: x, 1.0, 1.0) == 0.0
    assert triangle_double_integral(lambda s, sp: 1.0, 0.0) == 0.0


def test_triangle_constant_kernel():
    # int_0^t int_0^s c ds' ds = c t^2 / 2
    val = triangle_double_integral(lambda s, sp: 3.0, 2.0, tol=1e-12)
    assert abs(val - 6.0) < 1e-10


def test_triangle_separable_kernel():
    # f(s, s') = s * s': int_0^t s (s^2/2) ds = t^4 / 8
    val = triangle_double_integral(lambda s, sp: s * sp, 1.5, tol=1e-12)
    assert abs(val - 1.5 ** 4 / 8) < 1e-10
