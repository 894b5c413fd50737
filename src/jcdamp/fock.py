"""Dense single-mode Fock-space operators and states.

Operators are plain complex numpy arrays in the number basis
|0>, ..., |n_trunc-1>.  All functions are pure and never mutate their
arguments.  Tolerance claims for truncated operators exclude the top
``TAIL_LEVELS`` Fock levels, where truncation error concentrates;
``tail_weight`` reports the population living there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

TAIL_LEVELS = 4

# tail weight above this is flagged on coherent-state construction
COHERENT_TAIL_FLAG = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the damped atom-cavity model.

    omega     cavity angular frequency (rad / time)
    coupling  atom-field coupling rate (1 / time)
    gamma     cavity energy decay rate (1 / time, >= 0)
    n_trunc   Fock-space truncation dimension (>= 2)
    """

    omega: float
    coupling: float
    gamma: float
    n_trunc: int

    def __post_init__(self):
        if not (math.isfinite(self.omega) and math.isfinite(self.coupling)):
            raise ValueError("omega and coupling must be finite")
        if not math.isfinite(self.gamma) or self.gamma < 0.0:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if int(self.n_trunc) != self.n_trunc or self.n_trunc < 2:
            raise ValueError(f"n_trunc must be an integer >= 2, got {self.n_trunc}")


def annihilation(n_trunc: int) -> np.ndarray:
    """Annihilation operator: <n-1| a |n> = sqrt(n)."""
    if n_trunc < 2:
        raise ValueError(f"n_trunc must be at least 2, got {n_trunc}")
    return np.diag(np.sqrt(np.arange(1.0, n_trunc)), 1).astype(complex)


def number_operator(n_trunc: int) -> np.ndarray:
    """diag(0, 1, ..., n_trunc-1)."""
    if n_trunc < 2:
        raise ValueError(f"n_trunc must be at least 2, got {n_trunc}")
    return np.diag(np.arange(n_trunc, dtype=float)).astype(complex)


def matrix_exponential(op: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * op) by scaling-and-squaring (Pade), via scipy.

    Rejects non-finite input entries; accuracy on well-conditioned
    input is limited only by the dense expm algorithm itself.  scipy is
    imported here, not at module level, so that ``import jcdamp`` and the
    verbs that never call this function do not pay for loading it.
    """
    import scipy.linalg

    op = np.asarray(op, dtype=complex)
    if not np.all(np.isfinite(op)):
        raise ValueError("matrix_exponential requires finite entries")
    scale = complex(scale)
    if not (math.isfinite(scale.real) and math.isfinite(scale.imag)):
        raise ValueError("matrix_exponential requires a finite scale")
    return scipy.linalg.expm(scale * op)


@lru_cache(maxsize=8)
def _quadrature_eigh(n_trunc: int) -> tuple:
    """Eigenvalues and eigenvectors of the Hermitian tridiagonal
    quadrature P = i (a+ - a) at truncation ``n_trunc`` (cached: treat
    them as read-only)."""
    a = annihilation(n_trunc)
    return np.linalg.eigh(1j * (a.conj().T - a))


def displacement(alpha: complex, n_trunc: int) -> np.ndarray:
    """Displacement operator exp(alpha a+ - conj(alpha) a).

    With alpha = r e^{i theta} the generator is -i r U P U+, where
    P = i (a+ - a) and U = diag(e^{i n theta}) rotates phase space, so
    with P = V diag(lam) V+ (one cached ``eigh`` per truncation)

        D(alpha) = U V diag(e^{-i r lam}) V+ U+.

    Unitary to rounding; faithful to the untruncated operator only on
    states whose displaced support stays below the truncation boundary.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("displacement requires finite alpha")
    lam, vecs = _quadrature_eigh(n_trunc)
    r, theta = abs(alpha), math.atan2(alpha.imag, alpha.real)
    uv = np.exp(1j * theta * np.arange(n_trunc))[:, None] * vecs
    return (uv * np.exp(-1j * r * lam)) @ uv.conj().T


class CoherentState(NamedTuple):
    """Truncated coherent state amplitudes plus a truncation diagnostic.

    ``vec`` is renormalized to unit norm after truncation;
    ``tail_weight`` is the probability weight lost to truncation and
    ``clipped`` flags when it exceeds ``COHERENT_TAIL_FLAG``.
    """

    vec: np.ndarray
    tail_weight: float
    clipped: bool


def coherent_state(alpha: complex, n_trunc: int) -> CoherentState:
    """Coherent state amplitudes e^{-|a|^2/2} alpha^n / sqrt(n!)."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("coherent_state requires finite alpha")
    if n_trunc < 2:
        raise ValueError(f"n_trunc must be at least 2, got {n_trunc}")
    amps = np.empty(n_trunc, dtype=complex)
    amps[0] = 1.0
    for n in range(1, n_trunc):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    tail = max(0.0, 1.0 - norm_sq)
    amps /= math.sqrt(norm_sq)
    return CoherentState(amps, tail, tail > COHERENT_TAIL_FLAG)


def tail_weight(rho: np.ndarray) -> float:
    """Population of a field density matrix in its top ``TAIL_LEVELS``
    levels; for a stack of matrices, an array with one value per matrix."""
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    weight = np.sum(diag[..., -TAIL_LEVELS:], axis=-1)
    return float(weight) if weight.ndim == 0 else weight
