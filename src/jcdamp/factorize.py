"""Factorization of time-ordered exponentials whose generator splits
into two families A(t), B(t) that each commute within themselves and
whose cross-commutator [A(t), B(t')] is central.

For such a problem the propagator of dV/dt = (A(t) + B(t)) V factorizes
exactly into

    V(t) = exp(int_0^t B) exp(int_0^t A) exp(int_0^t ds int_0^s ds' f(s, s'))

with f(s, s') = [A(s), B(s')].  The kernel may return a scalar (applied
as a multiple of the identity) or a central matrix; both occur in
practice (truncated bosonic problems have scalar kernels away from the
truncation boundary, finite-dimensional nilpotent representations have
a central nilpotent commutator).

The two propagators import scipy inside the function, not at module
level, so that ``import jcdamp`` and the CLI verbs, which never call
them, do not pay for loading scipy.  The run contract (``TimeGrid``,
``StepTooLarge``) comes from ``fock``; the module imports only ``fock``
and ``quadrature``, no route's code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .fock import StepTooLarge, TimeGrid
from .quadrature import simpson_adaptive, triangle_double_integral

Kernel = Callable[[float, float], Union[complex, np.ndarray]]

# product-integral steps with larger exponent norms lose their accuracy order
MAX_STEP_NORM = 2.0
# ``check_preconditions`` samples this many times and allows this much defect
PRECONDITION_SAMPLES = 4
PRECONDITION_TOL = 1e-9
# absolute tolerance of the quadratures in ``factorized_propagator``
QUAD_TOL = 1e-10


class PreconditionViolated(ValueError):
    """The operator families fail the commutation preconditions."""


@dataclass(frozen=True)
class FactorizationProblem:
    """Time-indexed families A(t), B(t) with central cross-commutator.

    ``restrict`` optionally holds flat indices on which the commutator
    preconditions are checked (used for truncated bosonic operators,
    whose identities hold only away from the truncation boundary).
    """

    a_of_t: Callable[[float], np.ndarray]
    b_of_t: Callable[[float], np.ndarray]
    kernel: Kernel
    grid: TimeGrid
    restrict: Optional[np.ndarray] = None


def _masked_max(mat: np.ndarray, restrict: Optional[np.ndarray]) -> float:
    if restrict is None:
        return float(np.max(np.abs(mat)))
    sub = mat[np.ix_(restrict, restrict)]
    return float(np.max(np.abs(sub)))


def check_preconditions(problem: FactorizationProblem) -> None:
    """Sample ``PRECONDITION_SAMPLES`` times and verify, to
    ``PRECONDITION_TOL``, that the same-family commutators vanish and the
    cross-commutator matches the declared kernel."""
    grid = problem.grid
    times = np.linspace(grid.t_start, grid.t_end, PRECONDITION_SAMPLES)
    mats_a = [problem.a_of_t(t) for t in times]
    mats_b = [problem.b_of_t(t) for t in times]
    eye = np.eye(mats_a[0].shape[0], dtype=complex)
    for i in range(PRECONDITION_SAMPLES):
        for j in range(i + 1, PRECONDITION_SAMPLES):
            caa = mats_a[i] @ mats_a[j] - mats_a[j] @ mats_a[i]
            if _masked_max(caa, problem.restrict) > PRECONDITION_TOL:
                raise PreconditionViolated(
                    f"[A({times[i]:.4g}), A({times[j]:.4g})] != 0")
            cbb = mats_b[i] @ mats_b[j] - mats_b[j] @ mats_b[i]
            if _masked_max(cbb, problem.restrict) > PRECONDITION_TOL:
                raise PreconditionViolated(
                    f"[B({times[i]:.4g}), B({times[j]:.4g})] != 0")
    for i in range(PRECONDITION_SAMPLES):
        for j in range(PRECONDITION_SAMPLES):
            cab = mats_a[i] @ mats_b[j] - mats_b[j] @ mats_a[i]
            f_val = problem.kernel(times[i], times[j])
            f_mat = f_val * eye if np.isscalar(f_val) else np.asarray(f_val)
            if _masked_max(cab - f_mat, problem.restrict) > PRECONDITION_TOL:
                raise PreconditionViolated(
                    f"[A({times[i]:.4g}), B({times[j]:.4g})] != kernel")


def factorized_propagator(problem: FactorizationProblem, t: float,
                          check: bool = True) -> np.ndarray:
    """Three-factor propagator exp(int B) exp(int A) exp(double int f).

    The single integrals use matrix-valued Simpson quadrature and the
    kernel uses nested Simpson over the lower triangle, each refined to
    ``QUAD_TOL``.
    """
    import scipy.linalg

    if check:
        check_preconditions(problem)
    t0 = problem.grid.t_start
    int_b = simpson_adaptive(problem.b_of_t, t0, t, tol=QUAD_TOL)
    int_a = simpson_adaptive(problem.a_of_t, t0, t, tol=QUAD_TOL)
    int_f = triangle_double_integral(lambda s, sp: problem.kernel(t0 + s, t0 + sp), t - t0,
                                     tol=QUAD_TOL)
    prop = scipy.linalg.expm(int_b) @ scipy.linalg.expm(int_a)
    if np.isscalar(int_f) or np.asarray(int_f).ndim == 0:
        return complex(np.exp(int_f)) * prop
    return prop @ scipy.linalg.expm(np.asarray(int_f))


def time_ordered_propagator(generator: Callable[[float], np.ndarray],
                            grid: TimeGrid, v0: Optional[np.ndarray] = None):
    """Reference product integral via midpoint exponential steps.

    With ``v0`` given, propagates that vector (cheap for large sparse
    generators); otherwise accumulates and returns the full propagator.
    Second-order convergent in the step size.
    """
    import scipy.linalg
    from scipy.sparse.linalg import expm_multiply

    h = grid.step
    result = None if v0 is None else v0.astype(complex).copy()
    for k in range(grid.n_steps):
        g_mid = generator(grid.t_start + (k + 0.5) * h)
        step_scale = h * float(abs(g_mid).max())
        if step_scale > MAX_STEP_NORM:
            raise StepTooLarge(
                f"product-integral step too large: h * max|G| = {step_scale:.3g}")
        if result is None:
            result = scipy.linalg.expm(h * g_mid)
        elif result.ndim == 1:
            result = expm_multiply(h * g_mid, result)
        else:
            result = scipy.linalg.expm(h * g_mid) @ result
    return result
