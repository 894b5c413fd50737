"""Damped atom-cavity model: Hamiltonian, equation of motion, frame
changes, and the four-component decomposition of the joint state.

Basis conventions
-----------------
The joint space is atom (x) field with the atomic basis ordered
(up, down).  A joint operator is a 2N x 2N matrix laid out as a 2 x 2
grid of N x N field blocks::

    [[ <up|R|up>,   <up|R|down>  ],
     [ <down|R|up>, <down|R|down>]]

built with ``np.kron(atom_op, field_op)``.

The damping term is normalized once and for all as

    D[r] = (gamma/2) (2 a r a+  -  a+ a r  -  r a+ a)

and is used with this normalization everywhere in the package.  The joint
equation splits exactly into three field equations (``split_components``,
whose inverse is ``combine_components``): two commutator components, plus
and minus, and one anticommutator component, cross.  The one right-hand
side a run uses is that of a stack of these components in the rotating
frame, built by ``decoupled_rhs`` with the one fast D, as the band tables
of a generator G made at one frame time and a stage bound once to the
arrays it reads and writes (``CoupledRHS``).  A stage is one six-point
stencil on the stack's flat entries, with no matrix product; it is
correct for any slice, and keeps an exactly Hermitian plus or minus slice
exactly Hermitian.

Frame identity: X(t) = U X(0) U+ with U = exp(i omega t a+a), and D commutes
with that conjugation, so with P(tau) = ``_lab_phases(tau)`` the right-hand
side at frame time tau + s is f_s(y P(tau)) conj(P(tau)), entrywise; the
oracle's RK4 step rests on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock import ModelParams, annihilation, number_operator, tail_weight

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ATOM_UP = np.array([1.0, 0.0], dtype=complex)
ATOM_DOWN = np.array([0.0, 1.0], dtype=complex)

# ``check_joint_density`` (and ``wigner_at``) tolerances, loose enough for JSON text
HERM_TOL = 1e-8
TRACE_TOL = 1e-8
PSD_TOL = 1e-6


def hamiltonian_full(params: ModelParams) -> np.ndarray:
    """H = 1 (x) omega a+a + coupling sigma_x (x) (a + a+).

    The coupling keeps both co- and counter-rotating terms.
    """
    n = params.n_trunc
    a = annihilation(n)
    h = np.kron(np.eye(2, dtype=complex), params.omega * number_operator(n))
    h += params.coupling * np.kron(SIGMA_X, a + a.conj().T)
    return h


class CoupledRHS:
    """A right-hand side in its two pieces (``decoupled_rhs``).

    ``generator(t)`` builds the band tables of the effective generator G at
    frame time t, a new (4, k, N, N) buffer for a (k, N, N) stack;
    ``bind(g, y, out, work)`` returns a zero-argument callable that writes
    f(y) under ``g`` into ``out`` and returns it, reading the current entries
    of ``y`` and using ``work`` as scratch.  Every view the stencil uses is
    made once, at bind time, so ``y``, ``out`` and ``work`` must be
    C-contiguous complex arrays of the stack's shape ``g.shape[1:]``, and no
    two of them may share memory, since the stencil reads ``y`` after it
    starts writing ``out`` (ValueError otherwise).
    Called as f(t, y, out=None) it is ``bind(generator(t), y, out, work)()``,
    with ``out`` allocated when None.  A plain class: a dataclass would cost
    every ``import jcdamp`` about a millisecond.
    """

    __slots__ = ("generator", "bind")

    def __init__(self, generator: Callable[[float], np.ndarray],
                 bind: Callable[..., Callable[[], np.ndarray]]):
        self.generator = generator
        self.bind = bind

    def __call__(self, t: float, y: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=complex)
        if out is None:
            out = np.empty_like(y)
        return self.bind(self.generator(t), y, out, np.empty_like(out))()


def _lab_phases(t: float, params: ModelParams) -> np.ndarray:
    """exp(-i w t (m - n)) at entry (m, n) of an N x N field operator: from
    level differences, so a Hermitian state stays exactly Hermitian.

    Callers write ``np.multiply(state, phases)``, never ``state * phases``:
    from 256 KiB up, numpy reuses the temporary phase array and computes
    ``phases * state``, and its complex multiply rounds the two operand
    orders differently, so the bits would depend on the array's size."""
    levels = np.arange(params.n_trunc)
    return np.exp(-1j * params.omega * t * (levels[:, None] - levels[None, :]))


def to_rotational_picture(rho: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Lab frame -> rotating frame: U+ rho U with U = exp(-i w t a+a), the
    field phases tiled over the 2 x 2 atom blocks."""
    return np.multiply(rho, np.tile(_lab_phases(t, params), (2, 2)).conj())


def from_rotational_picture(rho: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Rotating frame -> lab frame, the inverse of ``to_rotational_picture``."""
    return np.multiply(rho, np.tile(_lab_phases(t, params), (2, 2)))


def field_from_rotational(mat: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Rotating frame -> lab frame for a single-mode field operator."""
    return np.multiply(mat, _lab_phases(t, params))


@dataclass(frozen=True)
class ComponentSet:
    """The four field operators of the Pauli expansion of a joint state.

    rho = (1/2) (1 (x) rho0 + sx (x) rho1 + sy (x) rho2 + sz (x) rho3).
    The decoupled combinations are exposed as properties: ``plus`` and
    ``minus`` evolve under commutator coupling of either sign, and the
    (generally non-Hermitian) ``cross`` combination rho3 + i rho2
    evolves under anticommutator coupling.
    """

    rho0: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray

    @property
    def plus(self) -> np.ndarray:
        return self.rho0 + self.rho1

    @property
    def minus(self) -> np.ndarray:
        return self.rho0 - self.rho1

    @property
    def cross(self) -> np.ndarray:
        return self.rho3 + 1j * self.rho2


def split_components(rho: np.ndarray) -> ComponentSet:
    """Extract (rho0..rho3) from the 2 x 2 block layout of a joint state."""
    dim = rho.shape[0] // 2
    r11 = rho[:dim, :dim]
    r12 = rho[:dim, dim:]
    r21 = rho[dim:, :dim]
    r22 = rho[dim:, dim:]
    return ComponentSet(
        rho0=r11 + r22,
        rho1=r12 + r21,
        rho2=1j * (r12 - r21),
        rho3=r11 - r22,
    )


def combine_components(cs: ComponentSet) -> np.ndarray:
    """The joint state whose ``split_components`` is ``cs``: its inverse.  With
    exactly Hermitian rho0..rho3 the result is exactly Hermitian."""
    r11 = 0.5 * (cs.rho0 + cs.rho3)
    r22 = 0.5 * (cs.rho0 - cs.rho3)
    r12 = 0.5 * (cs.rho1 - 1j * cs.rho2)
    r21 = 0.5 * (cs.rho1 + 1j * cs.rho2)
    return np.block([[r11, r12], [r21, r22]])


# kind -> (front factor over the coupling, sign of the y X(t) term)
_KINDS = {"plus": (-1j, -1.0), "minus": (1j, -1.0), "cross": (-1j, 1.0)}


def decoupled_rhs(kinds: Sequence[str], params: ModelParams) -> CoupledRHS:
    """Right-hand side f(t, ops) of a stack of decoupled components
    (rotating frame), ops[i] of kind kinds[i]:

    kind "plus"/"minus": -/+ i c [X(t), op] + D[op]
    kind "cross":           -i c {X(t), op} + D[op]

    The kinds come in any order, each any number of times (ValueError on an
    unknown kind).  Each slice of the stack may be any matrix, and evolves on
    its own: a shift that leaves a slice meets a zero coefficient, so a
    slice's values do not depend on its place in the stack (only a
    non-finite entry, as 0 * inf, reaches the next slice's edge).

    It is evaluated in effective-generator form, f(y) = G y + y H + gamma a y a+,
    with G = c f X(t) - (gamma/2) a+a for the kind's ``_KINDS`` entry (f, sign),
    and H = sign c f X(t) - (gamma/2) a+a: H = G+ for plus and minus, H = G for
    cross.  G and H have a diagonal g and two bands, so entry (i, j) of f is
    one six-point stencil,

        f_ij = (g_i + g_j) y_ij + J_ij y_{i+1,j+1}
               + [G_{i,i+1} y_{i+1,j} + H_{j+1,j} y_{i,j+1}]
               + [G_{i,i-1} y_{i-1,j} + H_{j-1,j} y_{i,j-1}],

    evaluated left to right on the stack's k N N entries, flat, each
    neighbour a shift of them: N + 1, N, 1, -N and -1.  Each bracket is
    summed before it is added, so the terms that mirror each other across
    the diagonal are added in the same order on both sides, and an exactly
    Hermitian plus or minus slice gives an exactly Hermitian result.

    The diagonal g = -(gamma/2) [0, |s_0|^2, |s_1|^2, ...] of G is taken from
    the ladder s = diag(a, 1), not from the integers (fl(sqrt(3)^2) != 3), and
    the jump table J_ij = gamma s_i conj(s_j) is padded with zeros in its last
    row and column; both are made once.  ``generator(t)`` makes the four band
    tables as a zero (4, k, N, N) buffer: entry (i, j) of table 0, 1, 2, 3
    holds the coefficient of y_{i+1,j}, y_{i,j+1}, y_{i-1,j}, y_{i,j-1}
    above, zero where that neighbour is outside the matrix.  G's bands are
    c f s e^{-i omega t} above the diagonal and c f conj(s) e^{i omega t}
    below it, each entry the product, in the same order, that the dense
    c f (a+ e^{i omega t} + a e^{-i omega t}) gives it, so it has the same
    bits; H's bands are G's conjugates, swapped (plus, minus), or G's own
    (cross).
    """
    for kind in kinds:
        if kind not in _KINDS:
            raise ValueError(f"unknown component kind {kind!r}")
    s = np.diagonal(annihilation(params.n_trunc), 1)
    g_diag = -0.5 * params.gamma * np.concatenate([[0.0], (s.conj() * s).real])
    m = params.n_trunc
    shape = (len(kinds), m, m)
    # the constant tables over the flat stack, complex even when real: numpy
    # would cast a real table on every call
    diagonal = np.tile(np.add.outer(g_diag, g_diag).astype(complex).reshape(-1), len(kinds))
    jump = np.zeros(shape, dtype=complex)
    jump[:, :-1, :-1] = params.gamma * np.outer(s, s.conj())
    jump = jump.reshape(-1)[:-m - 1].copy()
    fronts = np.array([_KINDS[kind][0] * params.coupling for kind in kinds])[:, None]
    adjoint = np.array([_KINDS[kind][1] < 0 for kind in kinds])[:, None]

    def generator(t: float) -> np.ndarray:
        upper = fronts * (s * np.exp(-1j * params.omega * t))  # G_{i,i+1}
        lower = fronts * (s.conj() * np.exp(1j * params.omega * t))  # G_{i+1,i}
        g = np.zeros((4,) + shape, dtype=complex)
        g[0, :, :-1, :] = upper[:, :, None]
        g[1, :, :, :-1] = np.where(adjoint, upper.conj(), lower)[:, None, :]
        g[2, :, 1:, :] = lower[:, :, None]
        g[3, :, :, 1:] = np.where(adjoint, lower.conj(), upper)[:, None, :]
        return g

    def bind(g: np.ndarray, y: np.ndarray, out: np.ndarray, work: np.ndarray):
        for arr in (y, out, work):
            if arr.shape != g.shape[1:] or arr.dtype != complex or not arr.flags.c_contiguous:
                raise ValueError("y, out and work must be C-contiguous complex arrays"
                                 f" of the stack's shape {g.shape[1:]}")
        for (name, arr), (other_name, other) in itertools.combinations(
                {"y": y, "out": out, "work": work}.items(), 2):
            if np.shares_memory(arr, other):
                raise ValueError(f"{name} and {other_name} share memory")
        result = out
        up, right, down, left = g.reshape(4, -1)
        y, out, work = y.reshape(-1), out.reshape(-1), work.reshape(-1)
        pair = np.empty_like(work)  # each bracket's first term, summed into work
        # every view made once; each write covers the range the next read takes
        y_jump, out_jump, work_jump = y[m + 1:], out[:-m - 1], work[:-m - 1]
        up, y_up, pair_up, work_up = up[:-m], y[m:], pair[:-m], work[:-m]
        right, y_right, work_right, out_right = right[:-1], y[1:], work[:-1], out[:-1]
        down, y_down, pair_down, work_down = down[m:], y[:-m], pair[m:], work[m:]
        left, y_left, work_left, out_left = left[1:], y[:-1], work[1:], out[1:]
        mul, add = np.multiply, np.add

        def stage() -> np.ndarray:
            mul(diagonal, y, out=out)  # (g_i + g_j) y_ij
            mul(jump, y_jump, out=work_jump)  # + J_ij y_{i+1,j+1}
            add(out_jump, work_jump, out=out_jump)
            mul(up, y_up, out=pair_up)  # + [G_{i,i+1} y_{i+1,j}
            mul(right, y_right, out=work_right)  # + H_{j+1,j} y_{i,j+1}]
            add(pair_up, work_up, out=work_up)
            add(out_right, work_right, out=out_right)
            mul(down, y_down, out=pair_down)  # + [G_{i,i-1} y_{i-1,j}
            mul(left, y_left, out=work_left)  # + H_{j-1,j} y_{i,j-1}]
            add(pair_down, work_down, out=work_down)
            add(out_left, work_left, out=out_left)
            return result

        return stage

    return CoupledRHS(generator, bind)


def joint_tail_weight(rho: np.ndarray) -> float:
    """``fock.tail_weight`` of a joint state: the sum over its two atom blocks."""
    dim = rho.shape[0] // 2
    return tail_weight(rho[:dim, :dim]) + tail_weight(rho[dim:, dim:])


def require_hermitian(mat: np.ndarray, name: str) -> None:
    """Raise ValueError naming ``name`` unless max |mat - mat+| <= ``HERM_TOL``."""
    if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERM_TOL}")


def check_joint_density(rho: np.ndarray) -> None:
    """Raise ValueError unless max |rho - rho+| <= ``HERM_TOL`` (both atom blocks and the
    adjoint off-diagonal pair in one check), |tr rho - 1| <= ``TRACE_TOL`` and no
    eigenvalue lies below ``-PSD_TOL``."""
    require_hermitian(rho, "state")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < -PSD_TOL:
        raise ValueError(f"state is not positive semidefinite: min eig {min_eig:.3e}")
