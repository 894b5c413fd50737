"""Phase-space evaluation: Wigner operator, pointwise and gridded
Wigner functions, and the closed-form Gaussian for the commutator
branches with coherent input.

Convention: with the operator used here, sum_grid W * dRe * dIm / pi
approximates Tr rho, i.e. int W d^2alpha / pi = Tr rho.  Downstream
plotting should normalize accordingly.

The computational definition is the displaced-parity form
2 D(alpha) P D+(alpha).  It inherits the truncated ``fock.displacement``:
it is faithful to the untruncated operator only on states whose
displaced support stays below the truncation boundary, so at large
|alpha| a value carries a truncation error.  Each D(alpha) reuses one
cached eigendecomposition per truncation, so a grid point costs two
N x N products and no matrix exponential, once for every state of a
``wigner_grid`` stack.  The normally ordered series definition is
numerically delicate (its partial sums cancel catastrophically in
floating point), so it is provided only as a certification path, summed
in exact rational arithmetic (``wigner_operator_series``) and compared
against the displaced-parity form in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fock import ModelParams, displacement
from .model import require_hermitian
from .solution import coherent_center

SERIES_TARGET = 1e-14


def parity_operator(n_trunc: int) -> np.ndarray:
    return np.diag((-1.0) ** np.arange(n_trunc)).astype(complex)


def wigner_operator(alpha: complex, n_trunc: int) -> np.ndarray:
    """Displaced parity 2 D(alpha) P D+(alpha), with the diagonal P applied
    as a sign flip of the odd columns of D(alpha)."""
    d = displacement(alpha, n_trunc)
    return 2.0 * (d * (-1.0) ** np.arange(n_trunc)) @ d.conj().T


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


def wigner_at(rho: np.ndarray, alpha: complex) -> float:
    """W(alpha) = Tr(wigner_operator(alpha) rho) for Hermitian rho."""
    require_hermitian(rho, "wigner_at state")
    return float(np.sum(wigner_operator(alpha, rho.shape[0]) * rho.T).real)


@dataclass(frozen=True)
class PhaseGrid:
    """Wigner values on a rectangular phase-space grid.

    values[i, j] = W(re[i] + 1j * im[j]).
    """

    re: np.ndarray
    im: np.ndarray
    values: np.ndarray

    def normalization(self) -> float:
        """Riemann-sum estimate of int W d^2alpha / pi (== Tr rho when
        the grid covers the state's support)."""
        d_re = abs(self.re[1] - self.re[0])
        d_im = abs(self.im[1] - self.im[0])
        return float(np.sum(self.values) * d_re * d_im / math.pi)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("re,im,w\n")
            for i, x in enumerate(self.re):
                for j, p in enumerate(self.im):
                    fh.write(f"{x:.17g},{p:.17g},{self.values[i, j]:.17g}\n")

    def to_json(self, path) -> None:
        payload = {
            "re": [float(x) for x in self.re],
            "im": [float(p) for p in self.im],
            "values": [[float(w) for w in row] for row in self.values],
            "normalization": self.normalization(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _axes(re_min, re_max, n_re, im_min, im_max, n_im) -> tuple:
    if n_re < 2 or n_im < 2:
        raise ValueError("grid needs at least 2 points per axis")
    return np.linspace(re_min, re_max, n_re), np.linspace(im_min, im_max, n_im)


def wigner_grid(rho: np.ndarray, re_min: float, re_max: float, n_re: int,
                im_min: float, im_max: float, n_im: int):
    """``wigner_at`` over a rectangular grid (deterministic row-major order, re outer / im
    inner) for one (N, N) state, a ``PhaseGrid``, or for each state of an (S, N, N) stack,
    a list of S grids.  Each point's operator is built once for the whole stack."""
    re, im = _axes(re_min, re_max, n_re, im_min, im_max, n_im)
    stack = rho[None] if rho.ndim == 2 else rho
    for state in stack:
        require_hermitian(state, "wigner_grid state")
    values = np.empty((len(stack), n_re, n_im))
    for i, x in enumerate(re):
        for j, p in enumerate(im):
            u0 = wigner_operator(x + 1j * p, rho.shape[-1])
            for s, state in enumerate(stack):
                values[s, i, j] = np.sum(u0 * state.T).real
    grids = [PhaseGrid(re=re, im=im, values=v) for v in values]
    return grids[0] if rho.ndim == 2 else grids


def gaussian_grid(t: float, params: ModelParams, sign: int, alpha0: complex,
                  re_min: float, re_max: float, n_re: int,
                  im_min: float, im_max: float, n_im: int) -> PhaseGrid:
    """Closed-form Wigner function 2 exp(-2 |alpha - ``coherent_center``|^2) of a
    commutator branch that started in the coherent state alpha0, on a grid."""
    re, im = _axes(re_min, re_max, n_re, im_min, im_max, n_im)
    center = coherent_center(t, params, sign, alpha0)
    xg, pg = np.meshgrid(re, im, indexing="ij")
    values = 2.0 * np.exp(-2.0 * np.abs(xg + 1j * pg - center) ** 2)
    return PhaseGrid(re=re, im=im, values=values)
