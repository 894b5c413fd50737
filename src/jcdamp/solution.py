"""Closed-form propagation of the decoupled components.

The commutator branches admit an exact solution: in a frame that
absorbs the damping flow, the drive integrates to a pure displacement
with amplitude ``displacement_amplitude``; undoing the frame change
turns the damping into the standard zero-temperature photon-loss
channel, whose Kraus series has weight ``damping_weight``.  The
displacement acts after the channel, at the damped amplitude
e^{-(i w + g/2) t} lambda: before it, lambda (growing like e^{g t / 2})
would carry the state past the truncation edge.  The anticommutator
branch factorizes the same way once the drive is split along growing /
decaying damping envelopes (the cosh and sinh moments of
``drive_integrals``), at the price of a scalar weight accumulated from
the c-number commutator between the two envelope families at times
(s, s'), -8 c^2 cosh(g s / 2) sinh(g s' / 2) cos(w (s - s'))
(``kernel_double_integral``).

Every scalar here is evaluated in closed form: the drive moments are
integrals of exponentials, and the kernel double integral is a sum of
two divided differences of exp (``_exp_divided_difference``), so no
quadrature runs on this route.

``evolve_cross`` evaluates that anticommutator-branch formula exactly
as derived here; the brute-force integrator remains the ground truth
for it, and comparison reports are emitted as data rather than
asserted (see the command-line ``compare`` verb).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .fock import ModelParams, annihilation, displacement, matrix_exponential

KRAUS_TRACE_TOL = 1e-14
# node spread below which a divided difference of exp is summed as a series
SERIES_RADIUS = 0.5
SERIES_TERMS = 24


class ClosedFormOverflow(ArithmeticError):
    """A closed-form state or scalar cannot be represented in floating point."""


def _overflow_reported(fn):
    """fn(t, params, ...) raising ClosedFormOverflow, naming fn and t, where an
    exponential leaves the float range (OverflowError) or the result is not finite."""
    @functools.wraps(fn)
    def wrapped(t, params, *args):
        try:
            value = fn(t, params, *args)
        except OverflowError:
            value = math.inf
        if not np.all(np.isfinite(value)):
            raise ClosedFormOverflow(f"{fn.__name__} overflows at t={t:.6g}"
                                     f" (gamma t = {params.gamma * t:.6g})")
        return value

    return wrapped


def _growth_integral(z: complex, t: float) -> complex:
    """int_0^t e^{z s} ds = (e^{z t} - 1) / z.

    e^{x + iy} - 1 = expm1(x) cos y - 2 sin^2(y / 2) + i e^x sin y keeps
    every digit as z t -> 0, where the plain difference cancels.
    """
    if z == 0:
        return complex(t)
    x, y = (z * t).real, (z * t).imag
    half = math.sin(0.5 * y)
    return complex(math.expm1(x) * math.cos(y) - 2.0 * half * half,
                   math.exp(x) * math.sin(y)) / z


@_overflow_reported
def displacement_amplitude(t: float, params: ModelParams, sign: int) -> complex:
    """Displacement accumulated by the drive in the damping-absorbing frame.

    -/+ i c int_0^t e^{(i w + g/2) s} ds; sign=+1 selects the branch
    driven by -i c [X, .].
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    z = 1j * params.omega + 0.5 * params.gamma
    return -1j * sign * params.coupling * _growth_integral(z, t)


def damping_weight(t: float, gamma: float) -> float:
    """Kraus weight of the photon-loss channel after time t: 1 - e^{-g t}.

    This value is forced by trace preservation of the channel; any other
    choice breaks unit-trace output on coherent input.
    """
    if t < 0 or gamma < 0:
        raise ValueError("damping_weight requires t >= 0 and gamma >= 0")
    return -math.expm1(-gamma * t)


def coherent_center(t: float, params: ModelParams, sign: int, alpha0: complex) -> complex:
    """Phase-space center of an initially coherent commutator branch.

    e^{-z t} (alpha0 + displacement_amplitude(t)), z = i w + g/2, evaluated
    as e^{-z t} alpha0 -/+ i c (1 - e^{-z t}) / z: the damped amplitude stays
    finite where displacement_amplitude (growing like e^{g t / 2}) overflows.
    For g t >> 1 this forgets alpha0 and tends to -/+ 2 i c / (2 i w + g).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    z = 1j * params.omega + 0.5 * params.gamma
    return (cmath.exp(-z * t) * alpha0
            - 1j * sign * params.coupling * _growth_integral(-z, t))


@_overflow_reported
def drive_integrals(t: float, params: ModelParams) -> tuple[complex, complex]:
    """cosh- and sinh-weighted drive moments.

        mu_cosh = -i c int_0^t cosh(g s / 2) e^{i w s} ds
        mu_sinh = -i c int_0^t sinh(g s / 2) e^{i w s} ds

    Evaluated by splitting cosh/sinh into exponentials; at g = 0 the
    sinh moment vanishes identically.
    """
    up = _growth_integral(1j * params.omega + 0.5 * params.gamma, t)
    dn = _growth_integral(1j * params.omega - 0.5 * params.gamma, t)
    pref = -0.5j * params.coupling
    return pref * (up + dn), pref * (up - dn)


def _exp_divided_difference(nodes: list) -> complex:
    """exp[z_0, ..., z_m], the divided difference of exp at ``nodes``
    (repeats allowed).  By the Hermite-Genocchi formula it is the
    integral of exp(sum_i u_i z_i) over the simplex u_i >= 0,
    sum_i u_i = 1.

    About the nodes' mean c it is e^c sum_k h_k(z - c) / (k + m)!, with
    h_k the complete homogeneous symmetric polynomials; that series is
    summed once the nodes lie within ``SERIES_RADIUS`` of c.  Otherwise
    the recurrence divides by the widest node gap, which keeps the
    cancellation in its numerator at a few ulps.
    """
    m = len(nodes) - 1
    center = sum(nodes) / len(nodes)
    shifted = [z - center for z in nodes]
    if max(abs(z) for z in shifted) <= SERIES_RADIUS:
        h = [1.0 + 0.0j] + [0.0j] * (SERIES_TERMS - 1)
        for z in shifted:
            for k in range(1, SERIES_TERMS):
                h[k] += z * h[k - 1]
        return cmath.exp(center) * sum(hk / math.factorial(k + m) for k, hk in enumerate(h))
    i, j = max(((i, j) for i in range(m + 1) for j in range(i + 1, m + 1)),
               key=lambda pair: abs(nodes[pair[1]] - nodes[pair[0]]))
    return ((_exp_divided_difference(nodes[:i] + nodes[i + 1:])
             - _exp_divided_difference(nodes[:j] + nodes[j + 1:])) / (nodes[j] - nodes[i]))


@_overflow_reported
def kernel_double_integral(t: float, params: ModelParams) -> float:
    """int_0^t ds int_0^s ds' of the envelope commutator kernel
    -8 c^2 cosh(g s / 2) sinh(g s' / 2) cos(w (s - s')), exactly.

    With cosh, sinh and cos split into exponentials the kernel is
    -2 c^2 Re sum_{s1, s2 = +-1} s2 e^{a s + b s'}, a = s1 g/2 + i w,
    b = s2 g/2 - i w, and the triangle integral of e^{a s + b s'} is
    t^2 exp[0, a t, (a + b) t].  The two terms of each s2 pair differ
    only in their last node, so they merge into one third divided
    difference:

        F = -2 c^2 g t^3 Re sum_{s1 = +-1} exp[0, a t, (s1 + 1) g t/2, (s1 - 1) g t/2]

    which stays accurate to a few ulps as g t or w t -> 0, where the
    plain difference quotient (G(a + b) - G(a)) / b loses every digit.
    """
    if t == 0.0 or params.coupling == 0.0 or params.gamma == 0.0:
        return 0.0
    c, g, w = params.coupling, params.gamma, params.omega
    total = sum(_exp_divided_difference([0.0j, (0.5 * s1 * g + 1j * w) * t,
                                         0.5 * (s1 + 1) * g * t, 0.5 * (s1 - 1) * g * t])
                for s1 in (1, -1))
    return -2.0 * c * c * g * t ** 3 * total.real


def _loss_kraus_sum(mat: np.ndarray, weight: float) -> np.ndarray:
    """sum_n (weight^n / n!) a^n mat a+^n, which ends by n = N - 1 (a is nilpotent),
    or once a term's trace contribution and max entry fall below KRAUS_TRACE_TOL.

    a X a+ is taken as an index shift, s_i X[i+1, j+1] s_j with s = diag(a, 1),
    in an array zero in its last row and column: each entry is the one product
    the dense a @ X @ a+ sums with exact zeros, so it has the same bits."""
    s = np.diagonal(annihilation(mat.shape[0]), 1)
    shifted = np.zeros_like(mat, dtype=complex)
    term = mat
    total = term.copy()
    for n in range(1, mat.shape[0]):
        np.multiply(s[:, None] * term[1:, 1:], s, out=shifted[:-1, :-1])
        term = (weight / n) * shifted
        total += term
        if abs(np.trace(term)) < KRAUS_TRACE_TOL and np.max(np.abs(term)) < KRAUS_TRACE_TOL:
            break
    return total


def _loss_and_damping(seed: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """sum_n (T^n/n!) E a^n seed a+^n E+, the last step of both closed forms,
    with T = ``damping_weight`` and E = e^{-(i w + g/2) t a+a} (diagonal)."""
    total = _loss_kraus_sum(seed, damping_weight(t, params.gamma))
    e = np.exp(-(1j * params.omega + 0.5 * params.gamma) * t * np.arange(params.n_trunc))
    return total * np.outer(e, e.conj())


def _finite(state: np.ndarray, branch: str, t: float) -> np.ndarray:
    """state, or ClosedFormOverflow naming ``branch`` and t where an entry is not
    finite: the phase w t (N - 1) of E, say, leaves the float range at large w t."""
    if not np.all(np.isfinite(state)):
        raise ClosedFormOverflow(f"{branch} closed form overflows at t={t:.6g}")
    return state


def evolve_plus_minus(rho0: np.ndarray, t: float, params: ModelParams,
                      sign: int) -> np.ndarray:
    """Exact lab-frame state of a commutator branch at time t.

    Apply the photon-loss Kraus series with weight ``damping_weight``, damp/rotate
    with e^{-(i w + g/2) t a+a} (left) and its adjoint (right), then displace by
    mu = e^{-(i w + g/2) t} ``displacement_amplitude`` (the channel's covariance).
    Hermitian input gives Hermitian output; the trace holds up to truncation tails.
    A state that leaves the float range raises ``ClosedFormOverflow``.
    """
    n = params.n_trunc
    if rho0.shape != (n, n):
        raise ValueError(f"initial operator has shape {rho0.shape}, expected {(n, n)}")
    d = displacement(coherent_center(t, params, sign, 0.0), n)  # mu, the vacuum's center
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        state = d @ _loss_and_damping(rho0, t, params) @ d.conj().T
    return _finite(state, "plus" if sign > 0 else "minus", t)


def evolve_cross(rho0: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Closed-form lab-frame state of the anticommutator branch.

    Evaluated literally as derived:

        e^{F + m1 m2* + m1* m2 - 4|m2|^2}
        sum_n (T^n/n!) E a^n e^{4 m2* a} D(m1+m2) rho0 D+(-m1-m2) e^{-4 m2 a+} a+^n E+

    with (m1, m2) = ``drive_integrals``, F = ``kernel_double_integral``,
    T = ``damping_weight`` and E = e^{-(i w + g/2) t a+a}.  The
    brute-force integrator is the declared ground truth for this branch;
    use the compare report to quantify the deviation.
    """
    n = params.n_trunc
    if rho0.shape != (n, n):
        raise ValueError(f"initial operator has shape {rho0.shape}, expected {(n, n)}")
    mu1, mu2 = drive_integrals(t, params)
    big_f = kernel_double_integral(t, params)
    prefactor = cmath.exp(big_f + mu1 * mu2.conjugate() + mu1.conjugate() * mu2
                          - 4.0 * abs(mu2) ** 2)
    a = annihilation(n)
    d = displacement(mu1 + mu2, n)  # also D+(-m1-m2), since D(-b)+ = D(b)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        left = matrix_exponential(a, 4.0 * mu2.conjugate())
        right = matrix_exponential(a.conj().T, -4.0 * mu2)
        seed = left @ d @ rho0 @ d @ right
    if not np.all(np.isfinite(seed)):
        raise ClosedFormOverflow(f"cross closed form overflows at t={t:.6g}: |m2| = {abs(mu2):.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        state = prefactor * _loss_and_damping(seed, t, params)
    return _finite(state, "cross", t)
