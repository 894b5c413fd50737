"""Reference helpers that only the tests use, kept out of the package.

The right-hand sides here are dense matrix products, written apart from
``model._coupled_rhs`` so that the tests can hold the package's fast
right-hand sides against them.
"""

import numpy as np

from jcdamp.doubled import superoperators
from jcdamp.fock import ModelParams, annihilation
from jcdamp.model import RHS, ComponentSet, _rotating, hamiltonian_full, joint_annihilation


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


def dense_damping(gamma: float, a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """D[mat] = (gamma/2) (2 a mat a+ - a+a mat - mat a+a), from dense products."""
    ad = a.conj().T
    n_op = ad @ a
    return 0.5 * gamma * (2.0 * a @ mat @ ad - n_op @ mat - mat @ n_op)


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


def rk4_states(rhs: RHS, y0: np.ndarray, h: float, n_steps: int) -> list:
    """Every state of fixed-step RK4 from y0, each stage a new array, the step
    written as one expression: the loop the oracle's in-place stages keep
    bit for bit."""
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


def combine_components(cs: ComponentSet) -> np.ndarray:
    """Exact inverse of ``split_components``."""
    r11 = 0.5 * (cs.rho0 + cs.rho3)
    r22 = 0.5 * (cs.rho0 - cs.rho3)
    r12 = 0.5 * (cs.rho1 - 1j * cs.rho2)
    r21 = 0.5 * (cs.rho1 + 1j * cs.rho2)
    return np.block([[r11, r12], [r21, r22]])


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

    def damp(r):  # dense products, a reference apart from ``_coupled_rhs``
        return 0.5 * params.gamma * (2.0 * a @ r @ ad - n_op @ r - r @ n_op)
    c = params.coupling
    return ComponentSet(
        rho0=-1j * c * (x @ cs.rho1 - cs.rho1 @ x) + damp(cs.rho0),
        rho1=-1j * c * (x @ cs.rho0 - cs.rho0 @ x) + damp(cs.rho1),
        rho2=-c * (x @ cs.rho3 + cs.rho3 @ x) + damp(cs.rho2),
        rho3=c * (x @ cs.rho2 + cs.rho2 @ x) + damp(cs.rho3),
    )
