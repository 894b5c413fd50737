"""Composite Simpson quadrature for scalar-, vector- and matrix-valued
integrands, refined to an absolute tolerance.

The only source caller is ``factorize.factorized_propagator``, for its
matrix single integrals and its triangle kernel integral.  The closed
forms in ``solution`` use no quadrature; the tests use this module as an
independent reference for them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

MAX_PANELS = 1 << 16
N_START = 8


def _simpson_nodes(a: float, b: float, n_panels: int):
    """Nodes and weights of the composite Simpson rule with ``n_panels`` panels."""
    n = 2 * n_panels
    nodes = np.linspace(a, b, n + 1)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return nodes, weights * ((b - a) / n / 3.0)


def simpson_fixed(f: Callable, a: float, b: float, n_panels: int):
    """Composite Simpson rule with ``n_panels`` panels (any array-valued f).

    f is evaluated and accumulated one node at a time, never stacked, so
    memory for a matrix integrand does not grow with the panel count.
    """
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    nodes, weights = _simpson_nodes(a, b, n_panels)
    return sum(w * np.asarray(f(x), dtype=complex)
               for x, w in zip(nodes.tolist(), weights.tolist()))


def _refine(estimate: Callable, tol: float):
    """Double the panel count of ``estimate(n_panels)`` from ``N_START``
    until successive estimates differ by at most ``tol`` in max-abs norm."""
    n = N_START
    prev = estimate(n)
    while n <= MAX_PANELS:
        n *= 2
        cur = estimate(n)
        if np.max(np.abs(cur - prev)) <= tol:
            return cur
        prev = cur
    raise RuntimeError(f"Simpson refinement did not reach tol={tol} "
                       f"within {MAX_PANELS} panels")


def simpson_adaptive(f: Callable, a: float, b: float, tol: float = 1e-10):
    """Refine ``simpson_fixed`` to ``tol`` (see ``_refine``)."""
    if b == a:
        return np.asarray(f(a), dtype=complex) * 0.0
    return _refine(lambda n: simpson_fixed(f, a, b, n), tol)


def simpson_adaptive_vec(fv: Callable, a: float, b: float, tol: float = 1e-10):
    """Like ``simpson_adaptive`` for an ``fv`` that maps a node array to
    a value array (scalar integrand, vectorized evaluation)."""
    if b == a:
        return 0.0

    def estimate(n: int):
        nodes, wts = _simpson_nodes(a, b, n)
        return np.dot(fv(nodes), wts)

    return _refine(estimate, tol)


def triangle_double_integral(f2: Callable[[float, float], complex], t: float,
                             tol: float = 1e-10):
    """int_0^t ds int_0^s ds' f2(s, s') over the lower triangle.

    Inner integrals run at a tighter tolerance so the refinement of the
    outer integral converges cleanly.
    """
    if t == 0.0:
        return 0.0 + 0.0j

    def inner(s: float):
        return simpson_adaptive(lambda sp: f2(s, sp), 0.0, s, tol=0.1 * tol)

    return simpson_adaptive(inner, 0.0, t, tol=tol)
