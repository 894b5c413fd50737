"""Dense single-mode Fock-space operators and states, and the base the
three routes share.

Operators are plain complex numpy arrays in the number basis
|0>, ..., |n_trunc-1>.  All functions are pure and never mutate their
arguments.  Tolerance claims for truncated operators exclude the top
``TAIL_LEVELS`` Fock levels, where truncation error concentrates;
``tail_weight`` reports the population living there.

Shared base: ``ModelParams`` and the run contract, ``TimeGrid`` and
``StepTooLarge``, live here.  The three routes (``oracle`` over ``model``,
``solution``, ``doubled``) share this module and import none of each
other's; it imports no sibling module.  ``tests/test_import_graph.py`` pins
every import between the package's modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

TAIL_LEVELS = 4

# tail weight above this is flagged on coherent-state construction
COHERENT_TAIL_FLAG = 1e-10
# ``coherent_state`` scales an overflowing recurrence by this exact power of
# two: after it, one more step stays finite for any |alpha| < 2^511
_RESCALE_BITS = 600


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


class StepTooLarge(RuntimeError):
    """The RK4 step violates a stability bound, or the state blew up."""


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool and anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_steps integrator steps; ``n_steps`` is an int
    or a numpy integer (a bool or a float is a ValueError)."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not _is_integer(self.n_steps):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t_start + self.step * np.arange(self.n_steps + 1)

    def stored_steps(self, store_every: int) -> list:
        """Every ``store_every``-th step index and the last."""
        return sorted({*range(0, self.n_steps + 1, store_every), self.n_steps})

    def check_steps(self, steps: Iterable[int] = None) -> set:
        """The steps a run keeps: ``steps`` as a set, by default {n_steps}.
        ValueError if a step is not an integer (as ``n_steps``), or if the set
        is empty or leaves [0, n_steps]."""
        steps = {self.n_steps} if steps is None else set(steps)
        for k in steps:
            if not _is_integer(k):
                raise ValueError(f"store_steps must be integers, got {k!r}")
        if not steps or min(steps) < 0 or max(steps) > self.n_steps:
            raise ValueError(f"store_steps must be a non-empty set in [0, {self.n_steps}]")
        return steps

    def step_index(self, t: float) -> int:
        """The step k with |t_start + k * step - t| <= 1e-9, else ValueError."""
        k = round((t - self.t_start) / self.step)
        if not 0 <= k <= self.n_steps or abs(self.t_start + k * self.step - t) > 1e-9:
            raise ValueError(f"time {t} is not a grid time")
        return k


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
    """Coherent state amplitudes e^{-|a|^2/2} alpha^n / sqrt(n!).  Where a step of
    the recurrence for alpha^n / sqrt(n!) overflows, the amplitudes made so far are
    scaled by 2^-``_RESCALE_BITS`` and the step is taken again; the scale is carried
    into the factor e^{-|a|^2/2}.  A recurrence that never overflows is never
    scaled.  ValueError if the weight below ``n_trunc`` leaves the float range."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("coherent_state requires finite alpha")
    if n_trunc < 2:
        raise ValueError(f"n_trunc must be at least 2, got {n_trunc}")
    amps = np.empty(n_trunc, dtype=complex)
    amps[0] = 1.0
    log_scale = 0.0  # amps hold e^{-log_scale} alpha^n / sqrt(n!)
    with np.errstate(over="ignore", invalid="ignore"):  # the norm check catches both
        for n in range(1, n_trunc):
            amps[n] = amps[n - 1] * alpha / math.sqrt(n)
            if not np.isfinite(amps[n]):
                amps[:n] *= 2.0 ** -_RESCALE_BITS
                log_scale += _RESCALE_BITS * math.log(2.0)
                amps[n] = amps[n - 1] * alpha / math.sqrt(n)
        try:
            weight = math.exp(log_scale - 0.5 * abs(alpha) ** 2)
        except OverflowError:  # |alpha|^2 beyond the float range: the norm check rejects it
            weight = 0.0
        amps *= weight
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if not np.finfo(float).tiny <= norm_sq < math.inf:
        raise ValueError(f"weight of alpha {alpha} below n_trunc {n_trunc} leaves the float range")
    tail = max(0.0, 1.0 - norm_sq)
    amps /= math.sqrt(norm_sq)
    return CoherentState(amps, tail, tail > COHERENT_TAIL_FLAG)


def tail_weight(rho: np.ndarray) -> float:
    """Population of a field density matrix in its top ``TAIL_LEVELS``
    levels; for a stack of matrices, an array with one value per matrix."""
    diag = np.diagonal(rho, axis1=-2, axis2=-1).real
    weight = np.sum(diag[..., -TAIL_LEVELS:], axis=-1)
    return float(weight) if weight.ndim == 0 else weight
