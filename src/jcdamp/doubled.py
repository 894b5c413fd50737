"""Doubled-space representation: density matrices as length-N^2 vectors.

A field operator R is mapped to the vector with entry (m, n) = <m|R|n>,
stored row-major, which is the same as pairing R with the unnormalized
maximally entangled vector sum_n |n, n~> of a physical mode and a
fictitious partner mode.  Left and right multiplication then become
ordinary matrices on the doubled space, and the damped equations of
motion become linear vector ODEs.

The superoperator matrices are built once per truncation, as sparse
matrices (``superoperators``), and the generators are sums of them.  The
Hamiltonian of the paper's equation (1) does not depend on time in the
lab frame, so each branch has one constant generator L: the factories
return it, and ``stacked`` joins the branches' L into one block-diagonal
matrix, under which ``compare`` evolves their vectors as one vector with
no branch coupled to another.  ``evolve_vectorized`` runs the Strang
split of L into its free diagonal D = i Im diag(L) and the rest A = L - D,
with one truncated-Taylor plan for h A per call.  Each Taylor action sums
the plan's full degree, with no early-termination test: the plan is
chosen so that this degree meets unit roundoff for every vector, and the
terms a test would skip lie below that already.  Each of its products
goes straight to scipy's CSR kernel, into buffers made once per action,
with the bits of ``csr_matrix @ vector`` (``expm_multiply``).  A call runs under the
run contract the routes share (``fock.TimeGrid``): it keeps exactly the
steps ``store_steps`` (``TimeGrid.check_steps``, by default the last) and
stops at the last of them.  The route imports only ``fock``: no oracle or
model code, so it stays independent of the routes it is checked against.

Truncation caveat: identities that hold for the untruncated mode (for
example that commutator and anticommutator superoperators commute with
each other) acquire defects at the truncation boundary.  They are exact
on the "interior" entries whose row and column pair indices all stay
at least ``fock.TAIL_LEVELS`` levels below the boundary; the tests list
them with ``interior_indices`` in ``tests/reference.py``.  Two,
[dissipator, comm_a(d)] = -comm_a(d), turn a displacement by
lambda before exp(s dissipator) into one by e^{-s} lambda after it (``solution``).

Only ``compare`` uses this route, so each function that builds sparse
matrices, or calls the CSR kernel, imports from ``scipy.sparse`` itself:
``import jcdamp`` and the other verbs then never load scipy.  Annotations such as ``sp.spmatrix`` stay
strings (``from __future__ import annotations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .fock import ModelParams, TimeGrid, annihilation


def vectorize(op: np.ndarray) -> np.ndarray:
    """Row-major flattening; entry m*N + n holds <m|op|n>."""
    return np.asarray(op, dtype=complex).reshape(-1).copy()


def devectorize(vec: np.ndarray) -> np.ndarray:
    dim = int(round(np.sqrt(vec.size)))
    if dim * dim != vec.size:
        raise ValueError(f"vector length {vec.size} is not a perfect square")
    return np.asarray(vec, dtype=complex).reshape(dim, dim).copy()


@lru_cache(maxsize=8)
def superoperators(n_trunc: int) -> dict:
    """The doubled-space superoperators at truncation ``n_trunc``, as
    sparse matrices (cached: treat them as read-only), keyed:

    left_*  / right_*   a or a+ times a vectorized operator, from the left / right
    comm_*  / acomm_*   commutator / anticommutator superoperators
    comm_n              [a+a, .] = diag(m - n), exact integers
    dissipator          2 a . a+ - a+a . - . a+a   (rate not included)
    """
    import scipy.sparse as sp

    a = sp.csr_matrix(annihilation(n_trunc))
    eye = sp.identity(n_trunc, dtype=complex, format="csr")
    left_a = sp.kron(a, eye, format="csr")
    left_ad = sp.kron(a.conj().T, eye, format="csr")
    right_a = sp.kron(eye, a.T, format="csr")
    right_ad = sp.kron(eye, a.conj(), format="csr")
    levels = np.arange(n_trunc)
    return {"left_a": left_a, "left_ad": left_ad, "right_a": right_a, "right_ad": right_ad,
            "comm_a": left_a - right_a, "comm_ad": left_ad - right_ad,
            "acomm_a": left_a + right_a, "acomm_ad": left_ad + right_ad,
            "comm_n": sp.diags((levels[:, None] - levels[None, :]).reshape(-1).astype(complex),
                               format="csr"),
            "dissipator": 2.0 * left_a @ right_ad - left_ad @ left_a - right_a @ right_ad}


def _generator(params: ModelParams, kind: str, pref: complex) -> sp.csr_matrix:
    # L = pref (<kind>_a + <kind>_ad) + (g/2) dissipator - i w comm_n.  Only
    # comm_n has an imaginary diagonal (the coupling has no diagonal, the
    # dissipator's is real), so Im diag(L) = -w (m - n) exactly.
    ops = superoperators(params.n_trunc)
    return (pref * (ops[kind + "_a"] + ops[kind + "_ad"]) + 0.5 * params.gamma * ops["dissipator"]
            - 1j * params.omega * ops["comm_n"])


def commutator_generator_factory(params: ModelParams, sign: int) -> sp.csr_matrix:
    """Lab-frame generator of the vectorized commutator-branch equation.

        L = -i w [a+a, .] -/+ i c (comm_a + comm_ad) + (g/2) dissipator

    sign=+1 selects the branch driven by -i c [a + a+, .].
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _generator(params, "comm", -1j * sign * params.coupling)


def anticommutator_generator_factory(params: ModelParams) -> sp.csr_matrix:
    """Lab-frame generator of the vectorized anticommutator-branch equation.

        L = -i w [a+a, .] - i c (acomm_a + acomm_ad) + (g/2) dissipator
    """
    return _generator(params, "acomm", -1j * params.coupling)


def stacked(generators: Iterable[sp.spmatrix]) -> sp.csr_matrix:
    """One generator for independent runs evolved as one vector: the block
    diagonal of the generators, in order.  The off-diagonal blocks are
    zero, so block i of the stacked vector evolves under generator i alone.
    """
    import scipy.sparse as sp

    return sp.block_diag(list(generators), format="csr")


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


@dataclass(frozen=True)
class TaylorPlan:
    """exp(A) v ~ (e^{mu/s} T_m(B / s))^s v, with B = A - mu I and T_m the
    Taylor polynomial of degree ``m_star``.

    (m_star, s) satisfy ||B||_1 <= s theta_{m_star}, so T_m(B / s) meets
    unit roundoff as an approximation of exp(B / s) whatever the vector:
    ``expm_multiply`` sums all m_star terms of every sweep."""

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
    the same name: Al-Mohy & Higham (2011), algorithm 3.2, with the
    degree and scaling of a plan chosen once, not on every call.  Each of
    the ``s`` sweeps sums the plan's full degree-``m_star`` polynomial,
    m_star * s products in all.  There is no early-termination test:
    the plan's (m_star, s) already meet unit roundoff for every v, so the
    terms such a test skips change the sum by less than that, while the
    test costs two norm passes per term.

    Each product goes straight to ``csr_matvec``, the kernel that scipy's
    ``csr_matrix @ vector`` calls, without the operator's dispatch or a new
    output array per product.  The kernel adds B x to its output row by
    row, in the order of the row's stored entries, so with the output
    zeroed first, as scipy's fresh ``np.zeros`` is, every product has the
    bits of ``plan.shifted @ term``, and every doubled state those of the
    operator loop (held by the tests, so a scipy release that changes the
    private kernel fails one).  The call makes three arrays, the copy of v
    and two term buffers the products alternate between; terms are scaled
    and summed in place, in the order the operator loop used.  ValueError
    if v does not match the plan, which the kernel would not check.
    """
    from scipy.sparse._sparsetools import csr_matvec

    b = plan.shifted
    if np.shape(v) != (b.shape[1],):
        raise ValueError(f"v must have shape ({b.shape[1]},) for a plan of shape {b.shape};"
                         f" got shape {np.shape(v)}")
    f = np.array(v, dtype=complex)
    buffers = (np.empty_like(f), np.empty_like(f))
    eta = np.exp(plan.mu / plan.s)
    for _ in range(plan.s):
        term = f
        for j in range(1, plan.m_star + 1):
            product = buffers[j % 2]
            product.fill(0.0)
            csr_matvec(b.shape[0], b.shape[1], b.indptr, b.indices, b.data, term, product)
            product *= 1.0 / (plan.s * j)
            f += product
            term = product
        f *= eta
    return f


def evolve_vectorized(generator: sp.spmatrix, v0: np.ndarray, grid: TimeGrid,
                      store_steps: Iterable[int] = None) -> dict[int, np.ndarray]:
    """Strang-split integration of dv/dt = L v for a constant square L.

    L splits into its free diagonal D = i Im diag(L) and A = L - D; per step
    v <- exp(h D / 2) exp(h A) exp(h D / 2) v, second-order accurate: one
    ``expm_multiply`` of the call's one ``taylor_plan`` of h A between two
    multiplies by one phase vector.  For the factories' generators D is the
    free rotation -i w diag(m - n) and A the coupling and damping.

    Returns step -> v for the steps ``grid.check_steps(store_steps)`` keeps,
    step 0 the initial vector itself, and takes no step after the last.  The
    step bound is the oracle's, checked first by ``compare`` at the full
    truncation.  ValueError if L is not a square matrix or has a non-finite
    entry, or if v0 does not match it.
    """
    import scipy.sparse as sp

    shape = np.shape(generator)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"the generator must be a square matrix; got shape {shape}")
    lab = sp.csr_matrix(generator, dtype=complex)
    if not np.isfinite(lab.data).all():
        raise ValueError(f"the generator of shape {shape} has non-finite entries")
    if np.shape(v0) != (shape[0],):
        raise ValueError(f"v0 must have shape ({shape[0]},) for a generator of shape"
                         f" {shape}; got shape {np.shape(v0)}")
    keep = grid.check_steps(store_steps)
    h = grid.step
    rotation = -lab.diagonal().imag  # D = -i diag(rotation)
    step = h * lab  # h A: h L with its diagonal's imaginary part dropped, in place
    on_diag = step.indices == np.repeat(np.arange(shape[0]), np.diff(step.indptr))
    step.data[on_diag] = step.data[on_diag].real
    plan = taylor_plan(step)
    half = np.exp(1j * (-0.5 * h) * rotation)
    w = v0.astype(complex)
    kept = {}
    for k in range(max(keep) + 1):
        if k:
            w = half * expm_multiply(plan, half * w)
        if k in keep:
            kept[k] = w
    return kept
