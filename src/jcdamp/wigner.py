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
floating point), so it serves only as a certification path: the test
suite sums it in exact rational arithmetic and compares it against the
displaced-parity form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fock import ModelParams, displacement
from .model import require_hermitian
from .solution import coherent_center


def wigner_operator(alpha: complex, n_trunc: int) -> np.ndarray:
    """Displaced parity 2 D(alpha) P D+(alpha), with the diagonal P applied
    as a sign flip of the odd columns of D(alpha)."""
    d = displacement(alpha, n_trunc)
    return 2.0 * (d * (-1.0) ** np.arange(n_trunc)) @ d.conj().T


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
