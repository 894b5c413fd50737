"""Brute-force numerical ground truth: fixed-step RK4 integration of the
full joint equation of motion and of the decoupled component equations
on the truncated Fock space.

Fixed-step RK4 is used (rather than an adaptive solver) so runs are
deterministic and reproducible as regression baselines.  A step must
pass the heuristic bound of ``require_step`` and the stability bound of
``require_stable``: h times a norm bound of the real generator,
2||H||_2 + 2 gamma (N-1), at most ``STABILITY_LIMIT``, inside RK4's
imaginary-axis limit 2 sqrt(2).  Every stored state must be finite, and
a joint state must keep its purity at most 1 + ``PURITY_SLACK``.  Each
failure raises ``StepTooLarge`` naming its cause.

Frame clock: right-hand sides are called with the time since
``grid.t_start``, so a rotating frame coincides with the lab frame at
the first grid time.  The initial state is therefore the same in both
frames, and a rotating-frame state stored at time t converts to the lab
frame with ``model.from_rotational_picture(state, t - grid.t_start)``.
The closed forms and the doubled route use the same clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fock import ModelParams, annihilation
from .model import (
    hamiltonian_full,
    joint_tail_weight,
    lab_frame_rhs,
    rotating_frame_rhs,
    single_component_rhs,
)
from .fock import tail_weight as field_tail_weight

STEP_SAFETY = 0.1
STABILITY_LIMIT = 2.5
PURITY_SLACK = 1e-9
TAIL_LIMIT = 1e-6


class StepTooLarge(RuntimeError):
    """The RK4 step violates a stability bound, or the state blew up."""


class TailOverflow(RuntimeError):
    """Truncation-boundary population exceeded the allowed budget."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_steps integrator steps."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t_start + self.step * np.arange(self.n_steps + 1)

    def stored_steps(self, store_every: int) -> list:
        """Step indices k a trajectory stores, at time t_start + k * step:
        every ``store_every``-th step and the last."""
        return [k for k in range(self.n_steps + 1)
                if k % store_every == 0 or k == self.n_steps]


@dataclass
class Trajectory:
    """Stored integration output: states at a subset of grid times."""

    times: np.ndarray
    states: list = field(default_factory=list)
    tail_weights: np.ndarray = None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9:
            raise KeyError(f"time {t} not on the stored grid")
        return self.states[idx]


def require_step(params: ModelParams, h: float) -> None:
    """Enforce h * max(|omega|, |coupling|, gamma, gamma*N) <= 0.1."""
    scale = max(abs(params.omega), abs(params.coupling), params.gamma,
                params.gamma * params.n_trunc)
    if h * scale > STEP_SAFETY * (1.0 + 1e-12):
        raise StepTooLarge(
            f"step {h:.3e} violates h * {scale:.3e} <= {STEP_SAFETY}"
        )


def require_stable(params: ModelParams, h: float, picture: str) -> None:
    """Enforce h * (2||H||_2 + 2 gamma (N-1)) <= STABILITY_LIMIT.

    H is the lab-frame Hamiltonian for picture "schrodinger" and
    coupling (a + a+) for "rotational" (also used for the components).
    """
    if picture == "schrodinger":
        h_norm = np.linalg.norm(hamiltonian_full(params), 2)
    else:
        a = annihilation(params.n_trunc)
        h_norm = abs(params.coupling) * np.linalg.norm(a + a.conj().T, 2)
    bound = 2.0 * h_norm + 2.0 * params.gamma * (params.n_trunc - 1)
    if h * bound > STABILITY_LIMIT:
        raise StepTooLarge(
            f"unstable: step {h:.3e} times generator norm bound {bound:.3e}"
            f" is {h * bound:.3g} > {STABILITY_LIMIT}"
        )


def _check_stored(y: np.ndarray, t: float, joint: bool) -> None:
    if not np.all(np.isfinite(y)):
        raise StepTooLarge(f"unstable: state is not finite at t={t:.6g}")
    if joint:
        # Tr(rho^2) of a Hermitian matrix is its squared Frobenius norm
        purity = np.vdot(y, y).real
        if purity > 1.0 + PURITY_SLACK:
            raise StepTooLarge(f"unstable: purity {purity:.3e} > 1 at t={t:.6g}")


def _rk4(rhs: Callable, y0: np.ndarray, grid: TimeGrid,
         tail_of: Callable[[np.ndarray], float],
         store_every: int, joint: bool) -> Trajectory:
    h = grid.step
    y = y0.astype(complex).copy()
    stored_t = [grid.t_start]
    states = [y.copy()]
    tails = [tail_of(y)]
    if tails[0] > TAIL_LIMIT:
        raise TailOverflow(f"initial tail weight {tails[0]:.3e} > {TAIL_LIMIT}")
    stored = set(grid.stored_steps(store_every))
    tau = 0.0  # frame clock, time since grid.t_start
    for k in range(1, grid.n_steps + 1):
        k1 = rhs(tau, y)
        k2 = rhs(tau + 0.5 * h, y + (0.5 * h) * k1)
        k3 = rhs(tau + 0.5 * h, y + (0.5 * h) * k2)
        k4 = rhs(tau + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tau = k * h
        t = grid.t_start + k * h
        w = tail_of(y)
        if w > TAIL_LIMIT:
            raise TailOverflow(f"tail weight {w:.3e} > {TAIL_LIMIT} at t={t:.6g}")
        if k in stored:
            _check_stored(y, t, joint)
            stored_t.append(t)
            states.append(y.copy())
            tails.append(w)
    return Trajectory(times=np.array(stored_t), states=states,
                      tail_weights=np.array(tails))


def integrate_joint(rho0: np.ndarray, params: ModelParams, grid: TimeGrid,
                    picture: str = "schrodinger", store_every: int = 1) -> Trajectory:
    """RK4 integration of the joint 2N x 2N equation of motion.

    picture "schrodinger" uses the lab-frame generator; "rotational"
    uses the rotating-frame generator with its explicit time dependence.
    """
    n = params.n_trunc
    if rho0.shape != (2 * n, 2 * n):
        raise ValueError(f"initial state has shape {rho0.shape}, expected {(2 * n, 2 * n)}")
    builders = {"schrodinger": lab_frame_rhs, "rotational": rotating_frame_rhs}
    if picture not in builders:
        raise ValueError(f"unknown picture {picture!r}")
    require_step(params, grid.step)
    require_stable(params, grid.step, picture)
    return _rk4(builders[picture](params), rho0, grid, joint_tail_weight,
                store_every, joint=True)


def integrate_component(kind: str, op0: np.ndarray, params: ModelParams,
                        grid: TimeGrid, store_every: int = 1) -> Trajectory:
    """RK4 integration of one decoupled component (rotating frame).

    kind is "plus", "minus" or "cross".
    """
    n = params.n_trunc
    if op0.shape != (n, n):
        raise ValueError(f"initial operator has shape {op0.shape}, expected {(n, n)}")
    rhs = single_component_rhs(kind, params)
    require_step(params, grid.step)
    require_stable(params, grid.step, "rotational")

    def tail_of(mat: np.ndarray) -> float:
        return abs(field_tail_weight(mat))

    return _rk4(rhs, op0, grid, tail_of, store_every, joint=False)
