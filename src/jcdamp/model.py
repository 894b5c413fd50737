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

and is used with this normalization everywhere in the package.  Every
equation of motion a run uses is in the rotating frame and is built by
``_coupled_rhs``, with the one fast D, as a generator G made at one frame
time and a stage bound once to the arrays it reads and writes
(``CoupledRHS``).  The joint coupling c sigma_x (x) X(t) acts as its N x N
field block X(t) on the atom-swapped rows of the state, never as a 2N x 2N
matrix.  A joint state or a plus or minus component must be Hermitian
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


def joint_annihilation(n_trunc: int) -> np.ndarray:
    return np.kron(np.eye(2, dtype=complex), annihilation(n_trunc))


def hamiltonian_full(params: ModelParams) -> np.ndarray:
    """H = 1 (x) omega a+a + coupling sigma_x (x) (a + a+).

    The coupling keeps both co- and counter-rotating terms.
    """
    n = params.n_trunc
    a = annihilation(n)
    h = np.kron(np.eye(2, dtype=complex), params.omega * number_operator(n))
    h += params.coupling * np.kron(SIGMA_X, a + a.conj().T)
    return h


def _ladder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, d): the superdiagonal s = diag(a, 1) of ``a`` and the diagonal
    d = [0, |s_0|^2, |s_1|^2, ...] of a+a.  ValueError unless ``a`` is square with
    non-zero entries only on its superdiagonal (``annihilation`` and
    ``joint_annihilation`` are).  d is taken from s, not from the integers
    (fl(sqrt(3)^2) != 3), so it is the diagonal the dense product gives, bit for bit."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"damping needs a square a, got shape {a.shape}")
    s = np.diagonal(a, 1)
    if np.count_nonzero(a) != np.count_nonzero(s):
        raise ValueError("damping needs an a with non-zero entries only on its superdiagonal")
    return s, np.concatenate([[0.0], (s.conj() * s).real])


class CoupledRHS:
    """A right-hand side in its two pieces (``_coupled_rhs``).

    ``generator(t)`` builds the effective generator G at frame time t, a new
    buffer; ``bind(g, y, out, work)`` returns a zero-argument callable that
    writes f(y) under G = ``g`` into ``out`` and returns it, reading the
    current entries of ``y`` and using ``work`` as scratch.  Every view the
    products use is made once, at bind time, so ``y``, ``out`` and ``work``
    must be C-contiguous complex arrays of one shape (ValueError otherwise).
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


def _coupled_rhs(band: np.ndarray, omega: float, front, sign, gamma: float, a: np.ndarray,
                 atom_swap: bool = False) -> CoupledRHS:
    """f(t, y, out) = front (K y + sign y K) + D[y]: sign -1 gives the
    commutator, +1 the anticommutator, D is the damping of (gamma, a), ``a``
    checked by ``_ladder``.  Front and sign may be arrays that broadcast over
    a stack y of matrices.  K is the rotating-frame coupling whose
    superdiagonal is ``band`` e^{-i omega t} and whose subdiagonal is
    conj(``band``) e^{i omega t}; with ``atom_swap``, K is sigma_x (x) that N x N
    matrix on the joint space of ``a``'s two atom blocks, a commutator only.

    It is evaluated in effective-generator form, f(y) = G y + y G' + gamma a y a+,
    with G = front K - (gamma/2) a+a and G' = sign front K - (gamma/2) a+a.
    ``generator(t)`` makes G as a zero buffer, writes its -(gamma/2) a+a
    diagonal, and writes its two bands once (``_write_bands``), each entry the
    product the dense front K(t) gives, bit for bit.  With ``atom_swap``, G is
    the N x N block front K(t) on the atom-swapped row blocks of y, two
    (N x N)(N x 2N) products, and the a+a parts of both sides are one table,
    -(gamma/2)(d_i + d_j) y_ij.  The jump term gamma a y a+ is y[i+1, j+1] times
    the table gamma s_i conj(s_j) (``_ladder``), taken as one shift of the flat
    m x m entries: entry p + m + 1 of y against entry p of a table padded with
    zeros in its last row and column.

    The kind of each slice sets its products: an anticommutator slice (G' = G)
    takes G y + y G; a commutator slice (G' = G+) takes G y + (G y)+, exactly
    Hermitian, and must be Hermitian itself, or the result is wrong.  ``bind``
    takes each group of slices of one kind as one basic-slice view per
    contiguous run of the stack, so no product reads or writes a copy.
    """
    s, d = _ladder(a)
    m = len(d)
    # complex even when real: numpy would cast a real table on every call
    jump = np.zeros((m, m), dtype=complex)
    jump[:-1, :-1] = gamma * np.outer(s, s.conj())
    shift = m + 1
    jump = jump.reshape(-1)[:m * m - shift].copy()
    half_n = 0.5 * gamma * d
    commutator = np.asarray(sign).reshape(-1) < 0
    comm, acomm = _runs(commutator), _runs(~commutator)
    n = m // 2
    decay = -(half_n[:, None] + half_n[None, :]).astype(complex)

    size = n if atom_swap else m  # the N of G's N x N matrices
    shape = np.broadcast_shapes(np.shape(front), (size, size))
    diag = np.diag_indices(m)
    front_rows = np.reshape(front, (-1, 1))  # one front per N x N matrix of G
    band_pair = (band, band.conj())

    def generator(t: float) -> np.ndarray:
        g = np.zeros(shape, dtype=complex)
        if not atom_swap:
            g[..., diag[0], diag[1]] -= half_n
        flat_g = g.reshape(-1, size * size)
        # strided views into g
        _write_bands((flat_g[:, 1::size + 1], flat_g[:, size::size + 1]), front_rows,
                     band_pair, omega, t)
        return g

    def bind(g: np.ndarray, y: np.ndarray, out: np.ndarray, work: np.ndarray):
        for arr in (y, out, work):
            if arr.shape != y.shape or arr.dtype != complex or not arr.flags.c_contiguous:
                raise ValueError("y, out and work must be C-contiguous complex arrays"
                                 " of one shape")
        if atom_swap:
            products = [(g, y[..., n:, :], out[..., :n, :]), (g, y[..., :n, :], out[..., n:, :])]
        else:
            products = [(g, y, out)]
        # G y + (G y)+: out's slices, their conjugates in work, read transposed
        comm_views = [(out[i], work[i], work[i].swapaxes(-1, -2)) for i in comm]
        # G y + y G: y G into work's slices, then added to out's; a 2-D G
        # (one front for every slice) serves each slice whole
        acomm_views = [(y[i], g[i] if g.ndim > 2 else g, work[i], out[i]) for i in acomm]
        flat_out = out.reshape(-1, m * m)[:, :-shift]
        flat_y = y.reshape(-1, m * m)[:, shift:]
        flat_work = work.reshape(-1, m * m)[:, :-shift]

        def stage() -> np.ndarray:
            for left, right, dest in products:
                np.matmul(left, right, out=dest)
            for dest, scratch, scratch_t in comm_views:
                np.conjugate(dest, out=scratch)
                dest += scratch_t
            for y_i, g_i, scratch, dest in acomm_views:
                np.matmul(y_i, g_i, out=scratch)
                dest += scratch
            if atom_swap:  # the a+a terms of G y + y G+: -(gamma/2)(d_i + d_j) y_ij
                np.add(out, np.multiply(decay, y, out=work), out=out)
            np.add(flat_out, np.multiply(jump, flat_y, out=flat_work), out=flat_out)
            return out

        return stage

    return CoupledRHS(generator, bind)


def _write_bands(bands, front, band_pair, omega: float, t: float) -> None:
    """Write the two bands of front X(t) into ``bands``, the (superdiagonal,
    subdiagonal) views of G: front (s e^{-i omega t}) and front (conj(s)
    e^{i omega t}), with ``band_pair`` = (s, conj(s)).  Each entry is the
    product, in the same order, that the dense front (a+ e^{i omega t} +
    a e^{-i omega t}) gives it, so it has the same bits."""
    upper, lower = bands
    np.multiply(front, band_pair[0] * np.exp(-1j * omega * t), out=upper)
    np.multiply(front, band_pair[1] * np.exp(1j * omega * t), out=lower)


def _runs(mask: np.ndarray) -> list:
    """Indices over axis 0 for the True entries of ``mask``: [Ellipsis] when
    all are True, else one slice per contiguous run of them (none when none is)."""
    if mask.all():
        return [Ellipsis]
    idx = np.flatnonzero(mask)
    breaks = np.flatnonzero(np.diff(idx) > 1) + 1
    return [slice(run[0], run[-1] + 1) for run in np.split(idx, breaks) if run.size]


def rotating_frame_rhs(params: ModelParams) -> CoupledRHS:
    """Right-hand side f(t, rho) of the joint equation in the rotating
    (free-field) frame, -i coupling [X(t) (x) sigma_x, rho] + D[rho]: the lab
    frame's -i[H, rho] + D[rho] with omega a+a moved into the frame.  The
    coupling is its field block c X(t), written as the two bands of
    c diag(a, 1), and acts on the atom-swapped rows of rho.  Every rho must be
    Hermitian: one product serves both sides (``_coupled_rhs``)."""
    band = np.diagonal(params.coupling * annihilation(params.n_trunc), 1)
    return _coupled_rhs(band, params.omega, -1j, -1.0, params.gamma,
                        joint_annihilation(params.n_trunc), atom_swap=True)


def _lab_phases(t: float, params: ModelParams, blocks: int) -> np.ndarray:
    """exp(-i w t (m - n)) at entry (m, n), levels tiled over ``blocks`` atom blocks:
    from level differences, so a Hermitian state stays exactly Hermitian.

    Callers write ``np.multiply(state, phases)``, never ``state * phases``:
    from 256 KiB up, numpy reuses the temporary phase array and computes
    ``phases * state``, and its complex multiply rounds the two operand
    orders differently, so the bits would depend on the array's size."""
    levels = np.tile(np.arange(params.n_trunc), blocks)
    return np.exp(-1j * params.omega * t * (levels[:, None] - levels[None, :]))


def to_rotational_picture(rho: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Lab frame -> rotating frame: U+ rho U with U = exp(-i w t a+a)."""
    return np.multiply(rho, _lab_phases(t, params, 2).conj())


def from_rotational_picture(rho: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Rotating frame -> lab frame, the inverse of ``to_rotational_picture``."""
    return np.multiply(rho, _lab_phases(t, params, 2))


def field_from_rotational(mat: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Rotating frame -> lab frame for a single-mode field operator."""
    return np.multiply(mat, _lab_phases(t, params, 1))


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


# kind -> (front factor over the coupling, sign of the y K term)
_KINDS = {"plus": (-1j, -1.0), "minus": (1j, -1.0), "cross": (-1j, 1.0)}


def decoupled_rhs(kinds: Sequence[str], params: ModelParams) -> CoupledRHS:
    """Right-hand side f(t, ops) of a stack of decoupled components
    (rotating frame), ops[i] of kind kinds[i]:

    kind "plus"/"minus": -/+ i c [X(t), op] + D[op]
    kind "cross":           -i c {X(t), op} + D[op]

    Each slice of the stack evolves on its own.  Every plus and minus slice
    must be Hermitian, and takes one product; a cross slice may be any
    matrix, and takes two (``_coupled_rhs``).
    """
    for kind in kinds:
        if kind not in _KINDS:
            raise ValueError(f"unknown component kind {kind!r}")
    a = annihilation(params.n_trunc)
    front = np.array([_KINDS[kind][0] * params.coupling for kind in kinds])[:, None, None]
    sign = np.array([_KINDS[kind][1] for kind in kinds])[:, None, None]
    return _coupled_rhs(np.diagonal(a, 1), params.omega, front, sign, params.gamma, a)


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
