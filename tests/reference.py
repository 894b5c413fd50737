"""Reference helpers that only the tests use, kept out of the package.

The right-hand sides here are dense matrix products, written apart from
``model.decoupled_rhs`` so that the tests can hold the package's fast
right-hand sides against them.  ``lab_frame_rhs`` is the paper's joint
equation (1) in the lab frame, built from ``hamiltonian_full`` and
``joint_annihilation``, which the tests hold the oracle's joint run, the
embedded component stack, against.  ``dense_coupled_rhs`` is the package's
earlier right-hand side, dense products with the whole coupling matrix
rebuilt at each new time; the tests hold the stencil's band tables to the
bits of its coupling, and the stencil's runs to its runs within rounding.
``rk4_states`` is the oracle's earlier rotating-frame RK4 loop,
``lab_rk4_states`` its earlier lab-frame step, summed left to right, and
``weighted_lab_rk4_states`` the lab-frame step the oracle takes now, its
sums weighted row products, each with every stage made anew.
``dense_loss_kraus_sum`` is the closed forms' earlier photon-loss Kraus
sum, from dense products, which the tests hold the index-shift one to, bit
for bit.  The envelope commutator kernel is the integrand of
``solution.kernel_double_integral``, and the exact-rational Wigner series
certifies ``wigner.wigner_operator``.  ``early_terminated_expm_multiply``
is the package's earlier Taylor loop, which stopped a sweep once two terms
fell below unit roundoff; the tests hold the full-degree
``doubled.expm_multiply`` to it, and to ``operator_expm_multiply``, the
same loop on scipy's ``@``, bit for bit.  ``rotating_generator`` views a
doubled-space lab-frame generator in its rotating frame, and
``frame_midpoint_states`` is the doubled route's earlier rotating-frame
loop, which the tests hold ``doubled.evolve_vectorized`` to bit for bit.
``interior_indices`` lists the doubled-space entries on which the
truncated superoperator identities hold exactly, and ``acomm_partners``
gives two of the operators they relate.
"""

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp

from jcdamp.doubled import TaylorPlan, expm_multiply, superoperators, taylor_plan
from jcdamp.fock import TAIL_LEVELS, ModelParams, annihilation
from jcdamp.model import _KINDS, ComponentSet, hamiltonian_full
from jcdamp.solution import KRAUS_TRACE_TOL

RHS = Callable[..., np.ndarray]  # f(t, y, out=None) -> out


def damped_frame_drive(t: float, params: ModelParams, sign: int) -> np.ndarray:
    """Drive generator in the frame that absorbs the damping flow.

    Conjugating the commutator-branch drive by exp(-(g t / 2) dissipator)
    rescales it by e^{g t / 2}; the resulting family commutes with itself
    at different times on the interior subspace.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    ops = superoperators(params.n_trunc)
    pref = -1j * sign * params.coupling * np.exp(0.5 * params.gamma * t)
    return pref * (ops["comm_a"] * np.exp(-1j * params.omega * t)
                   + ops["comm_ad"] * np.exp(1j * params.omega * t)).toarray()


def interior_indices(n_trunc: int) -> np.ndarray:
    """Flat doubled-space indices (m, n) with both m, n < n_trunc - TAIL_LEVELS."""
    keep = np.arange(n_trunc - TAIL_LEVELS)
    return (keep[:, None] * n_trunc + keep[None, :]).reshape(-1)


_UNIT_ROUNDOFF = 2.0 ** -53


def early_terminated_expm_multiply(plan: TaylorPlan, v: np.ndarray) -> np.ndarray:
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


def operator_expm_multiply(plan: TaylorPlan, v: np.ndarray) -> np.ndarray:
    """The package's earlier full-degree Taylor loop, each product scipy's
    ``plan.shifted @ term``, scaled and summed in place as
    ``doubled.expm_multiply`` scales and sums its kernel products."""
    f = np.array(v, dtype=complex)
    eta = np.exp(plan.mu / plan.s)
    for _ in range(plan.s):
        term = f
        for j in range(1, plan.m_star + 1):
            term = plan.shifted @ term
            term *= 1.0 / (plan.s * j)
            f += term
        f *= eta
    return f


def rotating_generator(lab) -> SimpleNamespace:
    """A doubled-space lab-frame generator L seen in its rotating frame.

    L = G0 - i diag(rotation) with rotation = -Im diag(L), and
    G(t) = S(t) G0 S(t)^+ with S(t) = diag(exp(i t rotation)), so that
    v' = L v holds for v = S(t)^+ u when u' = G(t) u.  Returns a namespace
    with the sparse ``g0``, the real ``rotation``, ``phase(t)`` = the
    diagonal of S(t) and ``at(t)`` = the sparse G(t).
    """
    lab = sp.csr_matrix(lab, dtype=complex)
    rotation = -lab.diagonal().imag
    g0 = (lab + sp.diags(1j * rotation)).tocsr()

    def phase(t: float) -> np.ndarray:
        return np.exp(1j * t * rotation)

    def at(t: float) -> sp.csr_matrix:
        s = sp.diags(phase(t))
        return (s @ g0 @ s.conj()).tocsr()

    return SimpleNamespace(g0=g0, rotation=rotation, phase=phase, at=at)


def frame_midpoint_states(g0, rotation: np.ndarray, v0: np.ndarray, grid,
                          store_steps=None) -> dict:
    """The doubled route's earlier method on (G0, rotation), step -> vector.

    One ``taylor_plan`` of h G0, and the lab-frame vector w = S(-k h) v of
    the rotating-frame midpoint product v <- exp(h G((k - 1/2) h)) v stepped
    as w <- S(-h/2) exp(h G0) S(-h/2) w, keeping ``grid.check_steps(store_steps)``.
    """
    keep = grid.check_steps(store_steps)
    h = grid.step
    plan = taylor_plan(h * sp.csr_matrix(g0, dtype=complex))
    half = np.exp(1j * (-0.5 * h) * np.asarray(rotation, dtype=float))
    w = v0.astype(complex)
    kept = {}
    for k in range(max(keep) + 1):
        if k:
            w = half * expm_multiply(plan, half * w)
        if k in keep:
            kept[k] = w
    return kept


def acomm_partners(table: Mapping) -> tuple:
    """(2 left_a + comm_a, 2 right_ad - comm_ad) from a superoperator table
    (``doubled.superoperators(n)`` or its dense copy): on the interior they
    equal [dissipator, acomm_a] and [dissipator, acomm_ad]."""
    return (2.0 * table["left_a"] + table["comm_a"],
            2.0 * table["right_ad"] - table["comm_ad"])


def joint_annihilation(n_trunc: int) -> np.ndarray:
    """1 (x) a on the joint space of ``model``'s block layout."""
    return np.kron(np.eye(2, dtype=complex), annihilation(n_trunc))


def dense_damping(gamma: float, a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """D[mat] = (gamma/2) (2 a mat a+ - a+a mat - mat a+a), from dense products."""
    ad = a.conj().T
    n_op = ad @ a
    return 0.5 * gamma * (2.0 * a @ mat @ ad - n_op @ mat - mat @ n_op)


def dense_loss_kraus_sum(mat: np.ndarray, weight: float) -> np.ndarray:
    """``solution._loss_kraus_sum`` from dense products, a X a+ as a @ X @ a+,
    with its early stop at ``solution.KRAUS_TRACE_TOL``."""
    a = annihilation(mat.shape[0])
    ad = a.conj().T
    term = mat
    total = term.copy()
    for n in range(1, mat.shape[0]):
        term = (weight / n) * (a @ term @ ad)
        total += term
        if abs(np.trace(term)) < KRAUS_TRACE_TOL and np.max(np.abs(term)) < KRAUS_TRACE_TOL:
            break
    return total


def lab_frame_rhs(params: ModelParams) -> RHS:
    """Right-hand side f(t, rho, out=None) of the lab-frame joint equation
    -i[H, rho] + D[rho], from dense products with H = ``hamiltonian_full``;
    rho may be one matrix or a stack, and need not be Hermitian."""
    h = hamiltonian_full(params)
    a = joint_annihilation(params.n_trunc)

    def rhs(t, rho, out=None):
        value = -1j * (h @ rho - rho @ h) + dense_damping(params.gamma, a, rho)
        if out is None:
            return value
        out[...] = value
        return out

    return rhs


def _rotating(raising: np.ndarray, lowering: np.ndarray,
              omega: float) -> Callable[[float], np.ndarray]:
    """t -> raising e^{i w t} + lowering e^{-i w t}; with (a+, a) this is the
    rotating-frame field coupling X(t)."""
    return lambda t: raising * np.exp(1j * omega * t) + lowering * np.exp(-1j * omega * t)


def _ladder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, d): the superdiagonal s = diag(a, 1) of an ``a`` with no other
    non-zero entry, and the diagonal d = [0, |s_0|^2, |s_1|^2, ...] of a+a,
    taken from s as ``model.decoupled_rhs`` takes it (fl(sqrt(3)^2) != 3)."""
    s = np.diagonal(a, 1)
    assert np.count_nonzero(a) == np.count_nonzero(s), "a has entries off its superdiagonal"
    return s, np.concatenate([[0.0], (s.conj() * s).real])


def _slices(mask: np.ndarray):
    """Index over axis 0 for the True entries of ``mask``: Ellipsis, None, a slice
    or an index array (which reads and writes copies)."""
    if mask.all():
        return Ellipsis
    idx = np.flatnonzero(mask)
    if not idx.size:
        return None
    return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == idx.size else idx


def dense_coupled_rhs(coupling, front, sign, gamma: float, a: np.ndarray) -> RHS:
    """f(t, y, out) = front (K y + sign y K) + D[y], written into ``out`` (a
    C-contiguous array of y's shape, allocated when None) and returned: sign -1
    gives the commutator, +1 the anticommutator, D is the damping of (gamma, a),
    ``a`` read by ``_ladder``.  Front and sign may be arrays that broadcast
    over a stack y of matrices, the slices of the two kinds in any order.
    K = coupling(t), built once per distinct t (RK4 stages 2 and 3 share one
    time).

    It is evaluated in effective-generator form, f(y) = G y + y G' + gamma a y a+,
    with G = front K - (gamma/2) a+a and G' = sign front K - (gamma/2) a+a.
    The jump term gamma a y a+ is y[i+1, j+1] times the table gamma s_i conj(s_j)
    (``_ladder``), taken as one shift of the flat m x m entries: entry
    p + m + 1 of y against entry p of a table padded with zeros in its last
    row and column.

    The kind of each slice sets its products: an anticommutator slice (G' = G)
    takes G y + y G; a commutator slice (G' = G+) takes G y + (G y)+, exactly
    Hermitian, and must be Hermitian itself, or the result is wrong.
    """
    s, d = _ladder(a)
    m = len(d)
    # complex even when real: numpy would cast a real table on every call
    jump = np.zeros((m, m), dtype=complex)
    jump[:-1, :-1] = gamma * np.outer(s, s.conj())
    shift = m + 1
    jump = jump.reshape(-1)[:m * m - shift].copy()
    half_n = 0.5 * gamma * d
    diag = np.diag_indices(m)
    commutator = np.asarray(sign).reshape(-1) < 0
    comm, acomm = _slices(commutator), _slices(~commutator)

    last_t = g = work = None

    def rhs(t: float, y: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        nonlocal last_t, g, work
        if out is None:
            out = np.empty(np.shape(y), dtype=complex)
        if work is None or work.shape != out.shape:
            work = np.empty_like(out)  # scratch for the products added to out
        if t != last_t:
            last_t = t
            g = front * coupling(t)
            g[..., diag[0], diag[1]] -= half_n
        np.matmul(g, y, out=out)
        if comm is not None:
            out[comm] += np.conjugate(out[comm], out=work[comm]).swapaxes(-1, -2)
        if acomm is not None:
            out[acomm] += np.matmul(y[acomm], g[acomm], out=work[acomm])
        flat = out.reshape(-1, m * m)[:, :-shift]
        flat += np.multiply(jump, np.reshape(y, (-1, m * m))[:, shift:],
                            out=work.reshape(-1, m * m)[:, :-shift])
        return out

    return rhs


def dense_decoupled_rhs(kinds, params: ModelParams) -> RHS:
    """``model.decoupled_rhs`` on ``dense_coupled_rhs``."""
    a = annihilation(params.n_trunc)
    front = np.array([_KINDS[kind][0] * params.coupling for kind in kinds])[:, None, None]
    sign = np.array([_KINDS[kind][1] for kind in kinds])[:, None, None]
    return dense_coupled_rhs(_rotating(a.conj().T, a, params.omega), front, sign,
                             params.gamma, a)


def rk4_states(rhs: RHS, y0: np.ndarray, h: float, n_steps: int) -> list:
    """Every state of fixed-step RK4 from y0 in the rotating frame, each stage
    a new array at frame times tau, tau + h/2, tau + h/2 and tau + h, the step
    written as one expression: the oracle's earlier method, whose states times
    ``model._lab_phases(k h)`` are the lab-frame ones."""
    y, states = np.array(y0, dtype=complex), []
    for k in range(n_steps + 1):
        if k:
            tau = (k - 1) * h
            k1 = rhs(tau, y)
            k2 = rhs(tau + 0.5 * h, y + (0.5 * h) * k1)
            k3 = rhs(tau + 0.5 * h, y + (0.5 * h) * k2)
            k4 = rhs(tau + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(y)
    return states


def lab_rk4_states(rhs: RHS, y0: np.ndarray, h: float, n_steps: int,
                   phases: np.ndarray) -> list:
    """Every state of the lab-frame RK4 step z <- P(h) Phi_0(z) from y0, with
    ``phases`` = P(h) = ``model._lab_phases(h)``: each stage a new array at
    frame times 0, h/2, h/2 and h, the step written as one expression, then
    its product with the phases.  The oracle's earlier arithmetic, which its
    weighted row sums (``weighted_lab_rk4_states``) keep to rounding."""
    y, states = np.array(y0, dtype=complex), []
    for k in range(n_steps + 1):
        if k:
            k1 = rhs(0.0, y)
            k2 = rhs(0.5 * h, y + (0.5 * h) * k1)
            k3 = rhs(0.5 * h, y + (0.5 * h) * k2)
            k4 = rhs(h, y + h * k3)
            y = np.multiply(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), phases)
        states.append(y)
    return states


def _weighted_sum(weights, terms) -> np.ndarray:
    """sum_i weights[i] terms[i] for real weights and complex arrays of one
    shape: a new array, from one product of the weights with the terms'
    real parts, stacked as rows."""
    rows = np.stack(terms)
    parts = rows.reshape(len(terms), -1).view(np.float64)
    return np.matmul(np.asarray(weights, dtype=float), parts).view(complex).reshape(rows.shape[1:])


def weighted_lab_rk4_states(rhs: RHS, y0: np.ndarray, h: float, n_steps: int,
                            phases: np.ndarray) -> list:
    """``lab_rk4_states`` with the oracle's arithmetic: each stage input and
    the step sum y + (h/6) k1 + (h/3) k2 + (h/3) k3 + (h/6) k4 is one weighted
    sum of the step's vectors (``_weighted_sum``), each stage and each sum a
    new array.  The loop the oracle's in-place rows keep bit for bit."""
    y, states = np.array(y0, dtype=complex), []
    for k in range(n_steps + 1):
        if k:
            k1 = rhs(0.0, y)
            k2 = rhs(0.5 * h, _weighted_sum((0.5 * h, 1.0), (k1, y)))
            k3 = rhs(0.5 * h, _weighted_sum((1.0, 0.5 * h), (y, k2)))
            k4 = rhs(h, _weighted_sum((1.0, h), (y, k3)))
            y = np.multiply(_weighted_sum((h / 6.0, 1.0, h / 3.0, h / 3.0, h / 6.0),
                                          (k1, y, k2, k3, k4)), phases)
        states.append(y)
    return states


def component_rhs(cs: ComponentSet, t: float, params: ModelParams) -> ComponentSet:
    """Coupled equations of motion for the four components (rotating frame).

        d rho0 = -i c [X, rho1] + D[rho0]
        d rho1 = -i c [X, rho0] + D[rho1]
        d rho2 = -  c {X, rho3} + D[rho2]
        d rho3 = +  c {X, rho2} + D[rho3]
    """
    a = annihilation(params.n_trunc)
    ad = a.conj().T
    x = _rotating(ad, a, params.omega)(t)
    n_op = ad @ a

    def damp(r):  # dense products, a reference apart from ``decoupled_rhs``
        return 0.5 * params.gamma * (2.0 * a @ r @ ad - n_op @ r - r @ n_op)
    c = params.coupling
    return ComponentSet(
        rho0=-1j * c * (x @ cs.rho1 - cs.rho1 @ x) + damp(cs.rho0),
        rho1=-1j * c * (x @ cs.rho0 - cs.rho0 @ x) + damp(cs.rho1),
        rho2=-c * (x @ cs.rho3 + cs.rho3 @ x) + damp(cs.rho2),
        rho3=c * (x @ cs.rho2 + cs.rho2 @ x) + damp(cs.rho3),
    )


def drive_commutator_kernel(s: float, s_prime: float, params: ModelParams) -> float:
    """c-number commutator between the growing- and decaying-envelope
    drive generators at times (s, s'):

        -8 c^2 cosh(g s / 2) sinh(g s' / 2) cos(w (s - s'))
    """
    c = params.coupling
    g = params.gamma
    return (-8.0 * c * c * math.cosh(0.5 * g * s) * math.sinh(0.5 * g * s_prime)
            * math.cos(params.omega * (s - s_prime)))


SERIES_TARGET = 1e-14


def parity_operator(n_trunc: int) -> np.ndarray:
    return np.diag((-1.0) ** np.arange(n_trunc)).astype(complex)


def wigner_operator_series(alpha: complex, n_trunc: int, block: int = None) -> np.ndarray:
    """Normally ordered series for the Wigner operator,

        2 sum_k (-2)^k / k! (alpha* - a+)^k (alpha - a)^k,

    summed to convergence in exact rational arithmetic and returned as
    the top-left ``block`` x ``block`` matrix elements (the truncation
    of a and a+ does not affect those elements because lowering powers
    never leave the truncated space).

    Slow certification path; grouped per matrix element as

        2 (-1)^(m+n) cc(alpha)^-m alpha^-n sqrt(m! n!)
            sum_l y^l / l! S(m-l, n-l),    y = |alpha|^2,
        S(p, q) = sum_k (-2 y)^k / k! C(k, p) C(k, q)

    with every k- and l-sum evaluated in Fraction arithmetic.  Each
    k-series is truncated only once its ratio-test remainder, amplified
    by the worst assembly prefactor that can touch it, drops below
    ``SERIES_TARGET`` (so the returned elements are accurate to about that).
    """
    if block is None:
        block = n_trunc
    if block > n_trunc:
        raise ValueError("block cannot exceed n_trunc")
    alpha = complex(alpha)
    if alpha == 0:
        return 2.0 * parity_operator(n_trunc)[:block, :block]

    y = Fraction(alpha.real) ** 2 + Fraction(alpha.imag) ** 2
    neg2y = -2 * y
    y_float = float(y)
    mag = abs(alpha)

    def amplification(p: int, q: int) -> float:
        # S(p, q) reaches element (p + l, q + l) scaled by
        # 2 sqrt((p+l)! (q+l)!) |alpha|^-(p+q) / l!, maximal at the
        # largest l inside the block
        l_max = block - 1 - max(p, q)
        log_amp = 0.5 * (math.lgamma(p + l_max + 1) + math.lgamma(q + l_max + 1)) \
            - math.lgamma(l_max + 1) - (p + q) * math.log(mag)
        return 2.0 * math.exp(min(log_amp, 700.0))

    def k_series(p: int, q: int) -> Fraction:
        k0 = max(p, q)
        term = (neg2y ** k0 * math.comb(k0, p) * math.comb(k0, q)
                / Fraction(math.factorial(k0)))
        total = term
        k = k0
        stop_below = max(SERIES_TARGET / amplification(p, q), 1e-320)
        while True:
            k += 1
            term *= neg2y * k
            term /= (k - p) * (k - q)
            total += term
            # once the term ratio falls under 1/2 the remainder is
            # bounded by twice the current term
            ratio = 2.0 * y_float * (k + 1) / ((k + 1 - p) * (k + 1 - q))
            if ratio < 0.5 and 2.0 * abs(float(term)) < stop_below:
                return total

    s_table = [[k_series(p, q) for q in range(block)] for p in range(block)]

    out = np.empty((block, block), dtype=complex)
    y_pow = [y ** l / Fraction(math.factorial(l)) for l in range(block)]
    for m in range(block):
        for n in range(m, block):
            acc = Fraction(0)
            for l in range(min(m, n) + 1):
                acc += y_pow[l] * s_table[m - l][n - l]
            pref = (2.0 * (-1.0) ** (m + n)
                    * math.sqrt(math.factorial(m) * math.factorial(n))
                    * alpha.conjugate() ** (-m) * alpha ** (-n))
            out[m, n] = pref * float(acc)
            out[n, m] = np.conj(out[m, n])
    return out
