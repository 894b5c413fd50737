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
frame, built by ``decoupled_rhs`` with the one fast D, as a generator G
made at one frame time and a stage bound once to the arrays it reads and
writes (``CoupledRHS``).  A plus or minus component must be Hermitian
there (one product serves both sides; the oracle checks); a cross
component may be any matrix.

Frame identity: X(t) = U X(0) U+ with U = exp(i omega t a+a), and D commutes
with that conjugation, so with P(tau) = ``_lab_phases(tau)`` the right-hand
side at frame time tau + s is f_s(y P(tau)) conj(P(tau)), entrywise; the
oracle's RK4 step rests on it.
"""

from __future__ import annotations

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

    ``generator(t)`` builds the effective generator G at frame time t, a new
    buffer; ``bind(g, y, out, work)`` returns a zero-argument callable that
    writes f(y) under G = ``g`` into ``out`` and returns it, reading the
    current entries of ``y`` and using ``work`` as scratch.  Every view the
    products use is made once, at bind time, so ``y``, ``out`` and ``work``
    must be C-contiguous complex arrays of the generator's shape (ValueError
    otherwise).
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

    The kinds come in the order plus, minus, cross, each any number of times
    (ValueError otherwise).  Each slice of the stack evolves on its own.

    It is evaluated in effective-generator form, f(y) = G y + y G' + gamma a y a+,
    with G = c f X(t) - (gamma/2) a+a and G' = sign c f X(t) - (gamma/2) a+a for
    the kind's ``_KINDS`` entry (f, sign).  The diagonal d = [0, |s_0|^2,
    |s_1|^2, ...] of a+a is taken from the ladder s = diag(a, 1), not from the
    integers (fl(sqrt(3)^2) != 3), so it is the diagonal the dense product
    gives, bit for bit.  ``generator(t)`` makes G as a zero (k, N, N) buffer,
    writes its -(gamma/2) a+a diagonal, and writes its two bands once,
    c f s e^{-i omega t} and c f conj(s) e^{i omega t}, each entry the product,
    in the same order, that the dense c f (a+ e^{i omega t} + a e^{-i omega t})
    gives it, so it has the same bits.  The jump term gamma a y a+ is
    y[i+1, j+1] times the table gamma s_i conj(s_j), taken as one shift of the
    flat N x N entries: entry p + N + 1 of y against entry p of a table padded
    with zeros in its last row and column.

    The kind of each slice sets its products: a cross slice (G' = G) takes
    G y + y G and may be any matrix; a plus or minus slice (G' = G+) takes
    G y + (G y)+, exactly Hermitian, and must be Hermitian itself, or the
    result is wrong.  ``bind`` takes the plus and minus slices as one leading
    basic-slice view of the stack and the cross slices as one trailing one,
    so no product reads or writes a copy.
    """
    for kind in kinds:
        if kind not in _KINDS:
            raise ValueError(f"unknown component kind {kind!r}")
    if list(kinds) != sorted(kinds, key=list(_KINDS).index):
        raise ValueError(f"component kinds {list(kinds)} are not in the order {list(_KINDS)}")
    s = np.diagonal(annihilation(params.n_trunc), 1)
    d = np.concatenate([[0.0], (s.conj() * s).real])
    m = params.n_trunc
    # complex even when real: numpy would cast a real table on every call
    jump = np.zeros((m, m), dtype=complex)
    jump[:-1, :-1] = params.gamma * np.outer(s, s.conj())
    shift = m + 1
    jump = jump.reshape(-1)[:m * m - shift].copy()
    half_n = 0.5 * params.gamma * d
    # the plus and minus slices lead the stack, the cross slices trail it
    lead = sum(_KINDS[kind][1] < 0 for kind in kinds)
    comm = [slice(lead)] if lead else []
    acomm = [slice(lead, None)] if lead < len(kinds) else []

    shape = (len(kinds), m, m)
    diag = np.diag_indices(m)
    fronts = np.array([_KINDS[kind][0] * params.coupling for kind in kinds])[:, None]

    def generator(t: float) -> np.ndarray:
        g = np.zeros(shape, dtype=complex)
        g[..., diag[0], diag[1]] -= half_n
        flat_g = g.reshape(-1, m * m)  # its two bands are strided views
        np.multiply(fronts, s * np.exp(-1j * params.omega * t), out=flat_g[:, 1::m + 1])
        np.multiply(fronts, s.conj() * np.exp(1j * params.omega * t), out=flat_g[:, m::m + 1])
        return g

    def bind(g: np.ndarray, y: np.ndarray, out: np.ndarray, work: np.ndarray):
        for arr in (y, out, work):
            if arr.shape != g.shape or arr.dtype != complex or not arr.flags.c_contiguous:
                raise ValueError("y, out and work must be C-contiguous complex arrays"
                                 f" of the generator's shape {g.shape}")
        # G y + (G y)+: out's slices, their conjugates in work, read transposed
        comm_views = [(out[i], work[i], work[i].swapaxes(-1, -2)) for i in comm]
        # G y + y G: y G into work's slices, then added to out's
        acomm_views = [(y[i], g[i], work[i], out[i]) for i in acomm]
        flat_out = out.reshape(-1, m * m)[:, :-shift]
        flat_y = y.reshape(-1, m * m)[:, shift:]
        flat_work = work.reshape(-1, m * m)[:, :-shift]

        def stage() -> np.ndarray:
            np.matmul(g, y, out=out)
            for dest, scratch, scratch_t in comm_views:
                np.conjugate(dest, out=scratch)
                dest += scratch_t
            for y_i, g_i, scratch, dest in acomm_views:
                np.matmul(y_i, g_i, out=scratch)
                dest += scratch
            np.add(flat_out, np.multiply(jump, flat_y, out=flat_work), out=flat_out)
            return out

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
