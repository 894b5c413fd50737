"""Doubled-space representation: density matrices as length-N^2 vectors.

A field operator R is mapped to the vector with entry (m, n) = <m|R|n>,
stored row-major, which is the same as pairing R with the unnormalized
maximally entangled vector sum_n |n, n~> of a physical mode and a
fictitious partner mode.  Left and right multiplication then become
ordinary matrices on the doubled space, and the damped equations of
motion become linear vector ODEs.

The superoperator matrices are built once per truncation, as sparse
matrices; the generators are sums of them.  ``DoubledSpace`` offers
dense views of the same matrices for algebra checks, each built only
when asked for, since one is N^2 x N^2.

Truncation caveat: identities that hold for the untruncated mode (for
example that commutator and anticommutator superoperators commute with
each other) acquire defects at the truncation boundary.  They are exact
on the "interior" entries whose row and column pair indices all stay
at least ``fock.TAIL_LEVELS`` levels below the boundary; see
``interior_indices``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .fock import TAIL_LEVELS, ModelParams, annihilation, identity
from .oracle import TimeGrid, require_step

Matrix = Union[np.ndarray, sp.spmatrix]


def vectorize(op: np.ndarray) -> np.ndarray:
    """Row-major flattening; entry m*N + n holds <m|op|n>."""
    return np.asarray(op, dtype=complex).reshape(-1).copy()


def devectorize(vec: np.ndarray) -> np.ndarray:
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector length {vec.size} is not a perfect square")
    return np.asarray(vec, dtype=complex).reshape(dim, dim).copy()


def pairing_vector(n_trunc: int) -> np.ndarray:
    """Unnormalized sum_n |n, n~>, i.e. vectorize(identity)."""
    return vectorize(identity(n_trunc))


def interior_indices(n_trunc: int, margin: int = TAIL_LEVELS) -> np.ndarray:
    """Flat doubled-space indices (m, n) with both m, n < n_trunc - margin."""
    keep = np.arange(n_trunc - margin)
    return (keep[:, None] * n_trunc + keep[None, :]).reshape(-1)


@lru_cache(maxsize=8)
def _superoperators(n_trunc: int) -> dict:
    """Sparse superoperators at truncation ``n_trunc``, keyed by their
    ``DoubledSpace`` names (cached: treat them as read-only)."""
    a = sp.csr_matrix(annihilation(n_trunc))
    eye = sp.identity(n_trunc, dtype=complex, format="csr")
    left_a = sp.kron(a, eye, format="csr")
    left_ad = sp.kron(a.conj().T, eye, format="csr")
    right_a = sp.kron(eye, a.T, format="csr")
    right_ad = sp.kron(eye, a.conj(), format="csr")
    ops = {"left_a": left_a, "left_ad": left_ad, "right_a": right_a, "right_ad": right_ad,
           "comm_a": left_a - right_a, "comm_ad": left_ad - right_ad,
           "acomm_a": left_a + right_a, "acomm_ad": left_ad + right_ad,
           "dissipator": 2.0 * left_a @ right_ad - left_ad @ left_a - right_a @ right_ad}
    return {name: mat.tocsr() for name, mat in ops.items()}


class _DenseView:
    """Dense copy of one of the sparse superoperators, made on first access."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ds, owner=None):
        if ds is None:
            return self
        mat = _superoperators(ds.n_trunc)[self.name].toarray()
        ds.__dict__[self.name] = mat
        return mat


class DoubledSpace:
    """Canonical superoperator matrices on the doubled space, as dense
    views of the sparse matrices the generators use, each built on first
    access.

    left_*  / right_*   multiply a vectorized operator by a or a+ on
                        the corresponding side
    comm_*  / acomm_*   commutator / anticommutator superoperators
    dissipator          2 a . a+ - a+a . - . a+a   (rate not included)
    acomm_a_partner     commutator of ``dissipator`` with ``acomm_a``
    acomm_ad_partner    commutator of ``dissipator`` with ``acomm_ad``
    """

    left_a = _DenseView()
    left_ad = _DenseView()
    right_a = _DenseView()
    right_ad = _DenseView()
    comm_a = _DenseView()
    comm_ad = _DenseView()
    acomm_a = _DenseView()
    acomm_ad = _DenseView()
    dissipator = _DenseView()

    def __init__(self, n_trunc: int):
        if n_trunc < 2:
            raise ValueError(f"n_trunc must be at least 2, got {n_trunc}")
        self.n_trunc = n_trunc
        self.dim = n_trunc * n_trunc

    @cached_property
    def acomm_a_partner(self) -> np.ndarray:
        return 2.0 * self.left_a + self.comm_a

    @cached_property
    def acomm_ad_partner(self) -> np.ndarray:
        return 2.0 * self.right_ad - self.comm_ad


def _generator(params: ModelParams, kind: str, pref: complex) -> Callable[[float], sp.csr_matrix]:
    # G(t) = pref (<kind>_a e^{-i w t} + <kind>_ad e^{i w t}) + (g/2) dissipator
    ops = _superoperators(params.n_trunc)
    drive_a, drive_ad = ops[kind + "_a"], ops[kind + "_ad"]
    damping = 0.5 * params.gamma * ops["dissipator"]

    def generator(t: float) -> sp.csr_matrix:
        return (pref * np.exp(-1j * params.omega * t)) * drive_a \
            + (pref * np.exp(1j * params.omega * t)) * drive_ad \
            + damping

    return generator


def commutator_generator_factory(params: ModelParams,
                                 sign: int) -> Callable[[float], sp.csr_matrix]:
    """Generator of the vectorized commutator-branch equation.

        G(t) = -/+ i c (comm_a e^{-i w t} + comm_ad e^{i w t}) + (g/2) dissipator

    sign=+1 selects the branch driven by -i c [X, .].
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _generator(params, "comm", -1j * sign * params.coupling)


def anticommutator_generator_factory(params: ModelParams) -> Callable[[float], sp.csr_matrix]:
    """Generator of the vectorized anticommutator-branch equation.

        G(t) = -i c (acomm_a e^{-i w t} + acomm_ad e^{i w t}) + (g/2) dissipator
    """
    return _generator(params, "acomm", -1j * params.coupling)


def damped_frame_drive(t: float, params: ModelParams, sign: int) -> np.ndarray:
    """Drive generator in the frame that absorbs the damping flow.

    Conjugating the commutator-branch drive by exp(-(g t / 2) dissipator)
    rescales it by e^{g t / 2}; the resulting family commutes with itself
    at different times on the interior subspace.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    ds = DoubledSpace(params.n_trunc)
    pref = -1j * sign * params.coupling * np.exp(0.5 * params.gamma * t)
    return pref * (ds.comm_a * np.exp(-1j * params.omega * t)
                   + ds.comm_ad * np.exp(1j * params.omega * t))


def evolve_vectorized(generator: Callable[[float], Matrix], v0: np.ndarray,
                      grid: TimeGrid, params: ModelParams = None) -> np.ndarray:
    """Midpoint-exponential product integration of dv/dt = G(t) v.

    Per step: v <- exp(h G(t + h/2)) v, second-order accurate.  The
    exponential action is evaluated with scipy's expm_multiply, so the
    generator may be dense or sparse.
    """
    if params is not None:
        require_step(params, grid.step)
    h = grid.step
    v = v0.astype(complex).copy()
    for k in range(grid.n_steps):
        t_mid = grid.t_start + (k + 0.5) * h
        v = expm_multiply(h * generator(t_mid), v)
    return v
