"""Composite Simpson quadrature for scalar-, vector- and matrix-valued
integrands, with refinement to a requested tolerance."""

from __future__ import annotations

from typing import Callable

import numpy as np

MAX_PANELS = 1 << 16


def simpson_fixed(f: Callable, a: float, b: float, n_panels: int):
    """Composite Simpson rule with ``n_panels`` panels (any array-valued f)."""
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    n = 2 * n_panels  # subintervals, even by construction
    h = (b - a) / n
    total = np.asarray(f(a), dtype=complex) + np.asarray(f(b), dtype=complex)
    acc4 = None
    acc2 = None
    for k in range(1, n):
        val = np.asarray(f(a + k * h), dtype=complex)
        if k % 2 == 1:
            acc4 = val if acc4 is None else acc4 + val
        else:
            acc2 = val if acc2 is None else acc2 + val
    if acc4 is not None:
        total = total + 4.0 * acc4
    if acc2 is not None:
        total = total + 2.0 * acc2
    return total * (h / 3.0)


def _refine(estimate: Callable, tol: float, rtol: float, n_start: int):
    """Double the panel count of ``estimate(n_panels)`` until successive
    estimates differ by at most ``tol`` in max-abs norm (or by ``rtol``
    relative to the estimate's magnitude, when given)."""
    n = n_start
    prev = estimate(n)
    while n <= MAX_PANELS:
        n *= 2
        cur = estimate(n)
        delta = _max_abs(cur - prev)
        if delta <= tol or (rtol > 0.0 and delta <= rtol * _max_abs(cur)):
            return cur
        prev = cur
    raise RuntimeError(f"Simpson refinement did not reach tol={tol} "
                       f"within {MAX_PANELS} panels")


def _max_abs(x):
    # no np.max on scalars: it costs microseconds, and scalar estimates are
    # refined thousands of times per kernel integral
    x = abs(x)
    return x.max() if isinstance(x, np.ndarray) else x


def simpson_adaptive(f: Callable, a: float, b: float, tol: float = 1e-10,
                     rtol: float = 0.0, n_start: int = 8):
    """Refine ``simpson_fixed`` to ``tol`` / ``rtol`` (see ``_refine``)."""
    if b == a:
        return np.asarray(f(a), dtype=complex) * 0.0
    return _refine(lambda n: simpson_fixed(f, a, b, n), tol, rtol, n_start)


def _simpson_nodes(a: float, b: float, n_panels: int):
    n = 2 * n_panels
    nodes = np.linspace(a, b, n + 1)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return nodes, weights * ((b - a) / n / 3.0)


def simpson_adaptive_vec(fv: Callable, a: float, b: float, tol: float = 1e-10,
                         rtol: float = 0.0, n_start: int = 8):
    """Like ``simpson_adaptive`` for an ``fv`` that maps a node array to
    a value array (scalar integrand, vectorized evaluation)."""
    if b == a:
        return 0.0

    def estimate(n: int):
        nodes, wts = _simpson_nodes(a, b, n)
        return np.dot(fv(nodes), wts)

    return _refine(estimate, tol, rtol, n_start)


def triangle_double_integral(f2: Callable[[float, float], complex], t: float,
                             tol: float = 1e-10, rtol: float = 0.0,
                             vectorized: bool = False):
    """int_0^t ds int_0^s ds' f2(s, s') over the lower triangle.

    Inner integrals run at a tighter tolerance so the refinement of the
    outer integral converges cleanly.  With ``vectorized`` the kernel is
    called as f2(s, s'_array) and must broadcast over its second
    argument.  ``rtol`` bounds the refinement relative to the running
    estimate, which keeps large-magnitude integrals terminating.
    """
    if t == 0.0:
        return 0.0 + 0.0j

    rule = simpson_adaptive_vec if vectorized else simpson_adaptive

    def inner(s: float):
        return rule(lambda sp: f2(s, sp), 0.0, s, tol=0.1 * tol, rtol=0.1 * rtol)

    return simpson_adaptive(inner, 0.0, t, tol=tol, rtol=rtol)
