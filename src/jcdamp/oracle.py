"""Brute-force numerical ground truth: fixed-step RK4 integration of the
full joint equation of motion and of the decoupled component equations
on the truncated Fock space in the rotating frame, kept in the lab frame.

Fixed-step RK4 is used (rather than an adaptive solver) so runs are
deterministic and reproducible as regression baselines.  One loop,
``_rk4``, integrates a stack of states: the joint run is a stack of one,
and the decoupled components (plus, minus, cross) asked for together run
as one (k, N, N) stack, each slice under its own front factor and
commutator or anticommutator sign.  Each step works in place: the
right-hand side writes each RK4 stage into an array the loop made once
per run, the stages are summed in those arrays, and a kept state is
copied.  Each right-hand side is evaluated in effective-generator form
(``model._coupled_rhs``; the joint coupling acts as its N x N field block
on the atom-swapped rows), whose Hermitian contract is held here at entry: a joint, plus or minus initial state must
be Hermitian within ``model.HERM_TOL`` (ValueError naming it otherwise),
and its Hermitian part is integrated.  A run keeps exactly the steps
``store_steps`` (by default the last) and takes no step after the last of
them; ``TimeGrid.check_steps`` holds this rule here and in the doubled
route, and ``TimeGrid.step_index`` maps a time to its step.  ``TimeGrid``
and ``StepTooLarge`` live in ``fock``, the base the routes share, and are
re-exported here; this module imports only ``fock`` and ``model``.  A
step must pass the heuristic bound of ``require_step`` and the stability
bound of ``require_stable``: h times a norm bound of the rotating-frame
generator, 2||c (a + a+)||_2 + 2 gamma (N-1), at most ``STABILITY_LIMIT``,
inside RK4's imaginary-axis limit 2 sqrt(2).
The initial state and every kept state must be finite, and a joint one
must keep its purity at most 1 + ``PURITY_SLACK``; every step taken must
keep the tail weight of each state at most ``TAIL_LIMIT``.  Each
failure raises ``StepTooLarge`` or ``TailOverflow`` naming its cause and
its state ("joint", or the component kind).

Frame clock: right-hand sides are called with the time since
``grid.t_start``, so the rotating frame coincides with the lab frame at
the first grid time, and the initial state is the same in both frames.
Both entry points return the state kept at step k in the lab frame, its
product with ``model._lab_phases(k * grid.step)``, as the closed forms
and the doubled route, on the same clock, return theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .fock import ModelParams, StepTooLarge, TimeGrid, annihilation
from .model import (
    _lab_phases,
    decoupled_rhs,
    joint_tail_weight,
    require_hermitian,
    rotating_frame_rhs,
)
from .fock import tail_weight as field_tail_weight

STEP_SAFETY = 0.1
STABILITY_LIMIT = 2.5
PURITY_SLACK = 1e-9
TAIL_LIMIT = 1e-6


class TailOverflow(RuntimeError):
    """Truncation-boundary population exceeded the allowed budget."""


@dataclass
class Trajectory:
    """Integration output: the states at the kept grid steps."""

    grid: TimeGrid
    states: dict  # step -> state, in increasing step order
    tail_max: float  # largest tail weight over every step taken

    @property
    def times(self) -> np.ndarray:
        return self.grid.times()[list(self.states)]

    @property
    def final(self) -> np.ndarray:
        return self.states[max(self.states)]


def require_step(params: ModelParams, h: float) -> None:
    """Enforce h * max(|omega|, |coupling|, gamma*N) <= STEP_SAFETY.

    gamma itself needs no term: ``ModelParams`` holds N >= 2 and gamma >= 0,
    so gamma*N >= gamma."""
    scale = max(abs(params.omega), abs(params.coupling), params.gamma * params.n_trunc)
    if h * scale > STEP_SAFETY * (1.0 + 1e-12):
        raise StepTooLarge(
            f"step {h:.3e} violates h * {scale:.3e} <= {STEP_SAFETY}"
        )


def require_stable(params: ModelParams, h: float) -> None:
    """Enforce h * (2||H||_2 + 2 gamma (N-1)) <= STABILITY_LIMIT, with H the
    rotating-frame coupling c (a + a+): X(t) is a phase rotation of a + a+, so
    the bound holds at every t, for the joint run and the components alike.
    """
    a = annihilation(params.n_trunc)
    h_norm = abs(params.coupling) * np.linalg.norm(a + a.conj().T, 2)
    bound = 2.0 * h_norm + 2.0 * params.gamma * (params.n_trunc - 1)
    if h * bound > STABILITY_LIMIT:
        raise StepTooLarge(
            f"unstable: step {h:.3e} times generator norm bound {bound:.3e}"
            f" is {h * bound:.3g} > {STABILITY_LIMIT}"
        )


def _check_stored(y: np.ndarray, t: float, name: str, joint: bool) -> None:
    if not np.all(np.isfinite(y)):
        raise StepTooLarge(f"unstable: {name} state is not finite at t={t:.6g}")
    if joint:
        # Tr(rho^2) of a Hermitian matrix is its squared Frobenius norm
        purity = np.vdot(y, y).real
        if purity > 1.0 + PURITY_SLACK:
            raise StepTooLarge(f"unstable: purity {purity:.3e} > 1 at t={t:.6g}")


def _hermitian_part(y: np.ndarray, name: str) -> np.ndarray:
    """(y + y+) / 2 for an initial ``name`` state within ``model.HERM_TOL`` of Hermitian
    (ValueError otherwise); on exactly Hermitian input it is y, bit for bit."""
    y = np.asarray(y)
    require_hermitian(y, f"initial {name} state")
    return 0.5 * (y + y.conj().T)


def _rk4(rhs: Callable, y0: np.ndarray, params: ModelParams, grid: TimeGrid,
         store_steps: Iterable[int], names: list[str], joint: bool) -> dict[str, Trajectory]:
    """Integrate the stack ``y0``, one state per name on axis 0, and return
    name -> Trajectory.  With ``joint`` the stack holds one joint state (tail
    ``joint_tail_weight``, purity checked), else field operators (tail
    |``fock.tail_weight``|).  ``rhs(t, y, out)`` writes into ``out``: the four
    stages and the stage state live in arrays made once per run, the state is
    stepped in place, and each kept state is its product with its step's lab
    phases, a new array."""
    keep = grid.check_steps(store_steps)
    h = grid.step
    y = np.array(y0, dtype=complex)  # a copy, stepped in place
    k1, k2, k3, k4, stage = (np.empty_like(y) for _ in range(5))
    kept = {}
    tail_max = np.full(len(names), -np.inf)
    for k in range(max(keep) + 1):
        if k:
            tau = (k - 1) * h  # frame clock, time since grid.t_start
            rhs(tau, y, k1)
            np.multiply(k1, 0.5 * h, out=stage)
            stage += y
            rhs(tau + 0.5 * h, stage, k2)
            np.multiply(k2, 0.5 * h, out=stage)
            stage += y
            rhs(tau + 0.5 * h, stage, k3)
            np.multiply(k3, h, out=stage)
            stage += y
            rhs(tau + h, stage, k4)
            # y += (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= h / 6.0
            y += k1
        t = grid.t_start + k * h
        w = np.array([joint_tail_weight(y[0])]) if joint else np.abs(field_tail_weight(y))
        over = np.flatnonzero(w > TAIL_LIMIT)
        if over.size:
            i = over[0]
            raise TailOverflow(f"{names[i]} tail weight {w[i]:.3e} > {TAIL_LIMIT} at t={t:.6g}")
        tail_max = np.maximum(tail_max, w)
        if not k or k in keep:
            for name, state in zip(names, y):
                _check_stored(state, t, name, joint)
        if k in keep:
            kept[k] = [state * _lab_phases(k * h, params, 2 if joint else 1) for state in y]
    return {name: Trajectory(grid=grid, states={k: states[i] for k, states in kept.items()},
                             tail_max=float(tail_max[i]))
            for i, name in enumerate(names)}


def integrate_joint(rho0: np.ndarray, params: ModelParams, grid: TimeGrid,
                    store_steps: Iterable[int] = None) -> Trajectory:
    """RK4 integration of the joint 2N x 2N equation of motion in the
    rotating frame, which moves omega a+a and its RK4 error out of the
    generator; each kept state is returned in the lab frame.

    ``rho0`` must be Hermitian within ``model.HERM_TOL``; its Hermitian part is
    integrated.
    """
    n = params.n_trunc
    if rho0.shape != (2 * n, 2 * n):
        raise ValueError(f"initial state has shape {rho0.shape}, expected {(2 * n, 2 * n)}")
    rho0 = _hermitian_part(rho0, "joint")
    require_step(params, grid.step)
    require_stable(params, grid.step)
    rhs = rotating_frame_rhs(params)  # rho0 is Hermitian, as it requires
    return _rk4(rhs, rho0[None], params, grid, store_steps, ["joint"], joint=True)["joint"]


def integrate_component(initial: Mapping[str, np.ndarray], params: ModelParams,
                        grid: TimeGrid, store_steps: Iterable[int] = None) -> dict[str, Trajectory]:
    """RK4 integration of decoupled components in the rotating frame, all in
    one (k, N, N) stack; each kept state is returned in the lab frame.

    ``initial`` maps each kind ("plus", "minus" or "cross") to its N x N
    initial operator; the result maps each kind to its Trajectory.  A plus or
    minus operator must be Hermitian within ``model.HERM_TOL``; its Hermitian part is
    integrated.
    """
    n = params.n_trunc
    kinds = list(initial)
    if not kinds:
        raise ValueError("no component to integrate")
    for kind, op0 in initial.items():
        if np.shape(op0) != (n, n):
            raise ValueError(f"initial {kind} operator has shape {np.shape(op0)},"
                             f" expected {(n, n)}")
    rhs = decoupled_rhs(kinds, params)  # which needs plus and minus Hermitian, as made next
    y0 = [op0 if kind == "cross" else _hermitian_part(op0, kind) for kind, op0 in initial.items()]
    require_step(params, grid.step)
    require_stable(params, grid.step)
    return _rk4(rhs, np.stack(y0), params, grid, store_steps, kinds, joint=False)
