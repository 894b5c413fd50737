"""Doubled-space representation: density matrices as length-N^2 vectors.

A field operator R is mapped to the vector with entry (m, n) = <m|R|n>,
stored row-major, which is the same as pairing R with the unnormalized
maximally entangled vector sum_n |n, n~> of a physical mode and a
fictitious partner mode.  Left and right multiplication then become
ordinary matrices on the doubled space, and the damped equations of
motion become linear vector ODEs.

The superoperator matrices are built once per truncation, as sparse
matrices (``superoperators``), and the generators are sums of them.

Frame identity: in the rotating frame every generator obeys
G(t) = S(t) G(0) S(t)^+, where S(t) is the diagonal phase
e^{i w t (m - n)} at flat index m*N + n (conjugation by e^{i w t a+a}).
The dissipator commutes with S, so the identity is exact at any
truncation.  Each ``evolve_vectorized`` call therefore chooses one
truncated-Taylor plan for h G(0) and steps the lab-frame vector
w = S(t)^+ v under one constant half-step phase; it returns w, as the
oracle and the closed forms return lab-frame states.  A call runs
under the run contract the routes share (``fock.TimeGrid``): G is
evaluated on the frame clock (time since ``grid.t_start``), and the call
keeps exactly the steps ``store_steps`` (``TimeGrid.check_steps``, by
default the last) and stops at the last of them.  The route imports only
``fock``: no oracle or model code, so it stays independent of the routes
it is checked against.  ``compare`` evolves its three branches in one
such call: under ``stacked``, their vectors are one vector and G(0) is
the block diagonal of the branches' G(0), so the run makes one plan and
one Taylor action per step, and no branch couples to another.

Truncation caveat: identities that hold for the untruncated mode (for
example that commutator and anticommutator superoperators commute with
each other) acquire defects at the truncation boundary.  They are exact
on the "interior" entries whose row and column pair indices all stay
at least ``fock.TAIL_LEVELS`` levels below the boundary; see
``interior_indices``.  Two, [dissipator, comm_a(d)] = -comm_a(d), turn a displacement by
lambda before exp(s dissipator) into one by e^{-s} lambda after it (``solution``).

Only ``compare`` uses this route, so each function that builds sparse
matrices imports ``scipy.sparse`` itself: ``import jcdamp`` and the other
verbs then never load scipy.  Annotations such as ``sp.spmatrix`` stay
strings (``from __future__ import annotations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .fock import TAIL_LEVELS, ModelParams, TimeGrid, annihilation


def vectorize(op: np.ndarray) -> np.ndarray:
    """Row-major flattening; entry m*N + n holds <m|op|n>."""
    return np.asarray(op, dtype=complex).reshape(-1).copy()


def devectorize(vec: np.ndarray) -> np.ndarray:
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector length {vec.size} is not a perfect square")
    return np.asarray(vec, dtype=complex).reshape(dim, dim).copy()


def interior_indices(n_trunc: int) -> np.ndarray:
    """Flat doubled-space indices (m, n) with both m, n < n_trunc - TAIL_LEVELS."""
    keep = np.arange(n_trunc - TAIL_LEVELS)
    return (keep[:, None] * n_trunc + keep[None, :]).reshape(-1)


@lru_cache(maxsize=8)
def superoperators(n_trunc: int) -> dict:
    """The doubled-space superoperators at truncation ``n_trunc``, as
    sparse matrices (cached: treat them as read-only), keyed:

    left_*  / right_*   a or a+ times a vectorized operator, from the left / right
    comm_*  / acomm_*   commutator / anticommutator superoperators
    dissipator          2 a . a+ - a+a . - . a+a   (rate not included)
    acomm_a_partner     2 left_a + comm_a, = [dissipator, acomm_a] on the interior
    acomm_ad_partner    2 right_ad - comm_ad, = [dissipator, acomm_ad] on the interior
    """
    import scipy.sparse as sp

    a = sp.csr_matrix(annihilation(n_trunc))
    eye = sp.identity(n_trunc, dtype=complex, format="csr")
    left_a = sp.kron(a, eye, format="csr")
    left_ad = sp.kron(a.conj().T, eye, format="csr")
    right_a = sp.kron(eye, a.T, format="csr")
    right_ad = sp.kron(eye, a.conj(), format="csr")
    comm_a, comm_ad = left_a - right_a, left_ad - right_ad
    return {"left_a": left_a, "left_ad": left_ad, "right_a": right_a, "right_ad": right_ad,
            "comm_a": comm_a, "comm_ad": comm_ad, "acomm_a": left_a + right_a,
            "acomm_ad": left_ad + right_ad, "acomm_a_partner": 2.0 * left_a + comm_a,
            "acomm_ad_partner": 2.0 * right_ad - comm_ad,
            "dissipator": 2.0 * left_a @ right_ad - left_ad @ left_a - right_a @ right_ad}


class FrameGenerator:
    """Doubled-space generator in the rotating frame,

        G(t) = S(t) G(0) S(t)^+,   S(t) = diag(exp(i t rotation)),

    held as the sparse G(0) and the real vector ``rotation``.  Calling it
    at t returns the sparse G(t).  A constant generator has a zero
    rotation.
    """

    def __init__(self, g0: sp.spmatrix, rotation: np.ndarray):
        import scipy.sparse as sp

        self.g0 = sp.csr_matrix(g0, dtype=complex)
        rotation = np.asarray(rotation)
        n, m = self.g0.shape
        if n != m or rotation.shape != (n,) or not np.isrealobj(rotation):
            raise ValueError(f"FrameGenerator needs a square g0 and a real rotation of length"
                             f" g0.shape[0]; got g0 of shape {self.g0.shape} and rotation of"
                             f" shape {rotation.shape}, dtype {rotation.dtype}")
        self.rotation = rotation.astype(float)

    def phase(self, t: float) -> np.ndarray:
        """The diagonal of S(t)."""
        return np.exp(1j * t * self.rotation)

    def __call__(self, t: float) -> sp.csr_matrix:
        import scipy.sparse as sp

        s = sp.diags(self.phase(t))
        return (s @ self.g0 @ s.conj()).tocsr()


def _generator(params: ModelParams, kind: str, pref: complex) -> FrameGenerator:
    # G(0) = pref (<kind>_a + <kind>_ad) + (g/2) dissipator.  Conjugation by
    # e^{i w t a+a} multiplies entry (m, n), (m', n') by e^{i w t (m - n - m' + n')}:
    # e^{-i w t} on the lowering terms, e^{i w t} on the raising ones, 1 on the
    # dissipator, so G(t) = S(t) G(0) S(t)^+ holds exactly at any truncation.
    ops = superoperators(params.n_trunc)
    g0 = pref * (ops[kind + "_a"] + ops[kind + "_ad"]) + 0.5 * params.gamma * ops["dissipator"]
    levels = np.arange(params.n_trunc)
    return FrameGenerator(g0, params.omega * (levels[:, None] - levels[None, :]).reshape(-1))


def commutator_generator_factory(params: ModelParams, sign: int) -> FrameGenerator:
    """Generator of the vectorized commutator-branch equation.

        G(t) = -/+ i c (comm_a e^{-i w t} + comm_ad e^{i w t}) + (g/2) dissipator

    sign=+1 selects the branch driven by -i c [X, .].
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _generator(params, "comm", -1j * sign * params.coupling)


def anticommutator_generator_factory(params: ModelParams) -> FrameGenerator:
    """Generator of the vectorized anticommutator-branch equation.

        G(t) = -i c (acomm_a e^{-i w t} + acomm_ad e^{i w t}) + (g/2) dissipator
    """
    return _generator(params, "acomm", -1j * params.coupling)


def stacked(generators: Iterable[FrameGenerator]) -> FrameGenerator:
    """One generator for independent runs evolved as one vector.

    G(0) is the block diagonal of the generators' G(0) and the rotation
    is their rotations, concatenated in order.  The off-diagonal blocks
    are zero, so block i of the stacked vector evolves under generator i
    alone, and the frame identity holds block by block.
    """
    import scipy.sparse as sp

    generators = list(generators)
    return FrameGenerator(sp.block_diag([g.g0 for g in generators], format="csr"),
                          np.concatenate([g.rotation for g in generators]))


# theta_m of Al-Mohy & Higham (2011): the largest 1-norm of A for which m
# Taylor terms of exp(A) meet double-precision unit roundoff.  Values as in
# scipy.sparse.linalg._expm_multiply (m <= 30 from Higham & Al-Mohy 2010,
# table A.3; the rest from table 3.1 of the 2011 paper).
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class TaylorPlan:
    """exp(A) v ~ (e^{mu/s} T_m(B / s))^s v, with B = A - mu I and T_m the
    Taylor polynomial of degree ``m_star``."""

    shifted: sp.csr_matrix  # B
    mu: complex
    m_star: int
    s: int


def taylor_plan(a: sp.spmatrix) -> TaylorPlan:
    """Choose the Taylor degree and scaling for exp(a), once.

    Al-Mohy & Higham (2011), code fragment 3.1 for one vector: shift by
    mu = tr(a)/n, then take the (m, s = ceil(||B||_1 / theta_m)) with the
    fewest products m*s.  The exact 1-norm is used for every size of B.
    Beyond condition (3.13), at 1-norms above about 63, scipy refines s
    with estimated norms of powers of B instead; the 1-norm bounds those
    estimates, so this choice is never less accurate, at most slower.
    """
    import scipy.sparse as sp

    n = a.shape[0]
    mu = complex(a.trace()) / n
    shifted = sp.csr_matrix(a - mu * sp.identity(n, dtype=complex, format="csr"))
    norm = float(abs(shifted).sum(axis=0).max())
    if norm == 0.0:
        return TaylorPlan(shifted, mu, 0, 1)
    m_star, s = min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
                    key=lambda ms: ms[0] * ms[1])
    return TaylorPlan(shifted, mu, m_star, s)


def expm_multiply(plan: TaylorPlan, v: np.ndarray) -> np.ndarray:
    """exp(A) v for the matrix A of ``plan``.

    This is jcdamp's own truncated-Taylor loop, not scipy's function of
    the same name: it is Al-Mohy & Higham (2011), algorithm 3.2, with
    scipy's early-termination test (stop a Taylor sweep once the last
    two terms fall below unit roundoff relative to the sum), but the
    degree and scaling come from a plan chosen once, not on every call.
    """
    f = v
    eta = np.exp(plan.mu / plan.s)
    for _ in range(plan.s):
        c1 = np.abs(v).max()
        for j in range(plan.m_star):
            v = (1.0 / (plan.s * (j + 1))) * (plan.shifted @ v)
            c2 = np.abs(v).max()
            f = f + v
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(f).max():
                break
            c1 = c2
        f = eta * f
        v = f
    return f


def evolve_vectorized(generator: FrameGenerator, v0: np.ndarray, grid: TimeGrid,
                      store_steps: Iterable[int] = None) -> dict[int, np.ndarray]:
    """Midpoint-exponential product integration of dv/dt = G(t) v.

    Per step k: v <- exp(h G((k - 1/2) h)) v on the frame clock,
    second-order accurate.  By the frame identity,
    exp(h G(t)) = S(t) exp(h G(0)) S(t)^+, so one ``taylor_plan`` of
    h G(0) serves every step.  The loop steps the lab-frame vector
    w = S(-k h) v, for which the step is w <- S(-h/2) exp(h G(0)) S(-h/2) w,
    the symmetric split of the lab-frame generator G(0) - i diag(rotation):
    one ``expm_multiply`` call between two multiplies by one phase vector.

    Returns step -> w for the steps ``grid.check_steps(store_steps)`` keeps,
    step 0 the initial vector itself, and takes no step after the last.  The
    step bound is the oracle's, checked first by ``compare`` at the full truncation.
    """
    keep = grid.check_steps(store_steps)
    h = grid.step
    plan = taylor_plan(h * generator.g0)
    half = generator.phase(-0.5 * h)
    w = v0.astype(complex)
    kept = {}
    for k in range(max(keep) + 1):
        if k:
            w = half * expm_multiply(plan, half * w)
        if k in keep:
            kept[k] = w
    return kept
