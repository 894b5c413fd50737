"""Reference helpers that only the tests use, kept out of the package."""

import numpy as np

from jcdamp.doubled import superoperators
from jcdamp.fock import ModelParams
from jcdamp.model import RHS, _coupled_rhs, hamiltonian_full, joint_annihilation


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


def lab_frame_rhs(params: ModelParams) -> RHS:
    """Right-hand side f(t, rho) of the lab-frame joint equation
    -i[H, rho] + D[rho].  Every rho must be Hermitian: one product serves
    both sides (``_coupled_rhs``)."""
    h = hamiltonian_full(params)
    return _coupled_rhs(lambda t: h, -1j, -1.0, params.gamma,
                        joint_annihilation(params.n_trunc))
