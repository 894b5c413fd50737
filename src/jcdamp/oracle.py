"""Brute-force numerical ground truth: fixed-step RK4 integration of the
full joint equation of motion and of the decoupled component equations
on the truncated Fock space with the rotating-frame step, stepping the
lab-frame state.

Fixed-step RK4 is used (rather than an adaptive solver) so runs are
deterministic and reproducible as regression baselines.  One loop,
``_rk4``, integrates a stack of states: the joint run is a stack of one,
and the decoupled components (plus, minus, cross) asked for together run
as one (k, N, N) stack, each slice under its own front factor and
commutator or anticommutator sign.  Each step works in place: each RK4
stage, bound once per run, writes into an array the loop made once per
run, the stages are summed into the first stage's array, the state takes
one step's lab phases, the tail weights are read as one gather from a
flat view of the state, and a kept state is copied.  Each right-hand side
is evaluated in effective-generator form (``model._coupled_rhs``: a run
makes three generators, each with the coupling written as its two bands;
the joint coupling acts as its N x N field block on the atom-swapped
rows), whose Hermitian contract is held here at entry: a joint, plus or
minus initial state must be Hermitian within ``model.HERM_TOL``
(ValueError naming it otherwise), and its Hermitian part is integrated.
A run keeps exactly the steps ``store_steps`` (by default the last) and
takes no step after the last of them; ``TimeGrid.check_steps`` holds this rule here and in the doubled
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

Frame clock: the rotating frame coincides with the lab frame at
``grid.t_start``, so the initial state is the same in both frames.  The
rotating-frame RK4 step from frame time tau = k h (the time since
``grid.t_start``) is the step from frame time 0 conjugated by the phases
P(tau) = ``model._lab_phases(tau)`` (``model``'s frame identity).  So the
loop steps the lab-frame state z_k, the rotating-frame state times
P(k h), as z_k = P(h) Phi_0(z_{k-1}), with the generators at frame times
0, h/2 and h only, and both entry points return z_k as it stands, as the
closed forms and the doubled route, on the same clock, return theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .fock import TAIL_LEVELS, ModelParams, StepTooLarge, TimeGrid, annihilation
from .model import (
    CoupledRHS,
    _lab_phases,
    decoupled_rhs,
    require_hermitian,
    rotating_frame_rhs,
)

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


def _tail_entries(y: np.ndarray, joint: bool) -> np.ndarray:
    """Indices into ``y.reshape(-1).view(float)`` of the real parts of the top
    ``fock.TAIL_LEVELS`` diagonal entries, one row per field block: per slice
    of a component stack, or the two atom blocks of a joint state, upper first."""
    m = y.shape[-1]
    size = m // 2 if joint else m
    levels = np.arange(size)[-TAIL_LEVELS:]
    # flat index of (l, l) in one m x m slice, one row per field block
    diagonal = (np.arange(2 if joint else 1)[:, None] * size + levels) * (m + 1)
    return 2 * (np.arange(len(y))[:, None, None] * m * m + diagonal).reshape(-1, len(levels))


def _rk4(rhs: CoupledRHS, y0: np.ndarray, params: ModelParams, grid: TimeGrid,
         store_steps: Iterable[int], names: list[str], joint: bool) -> dict[str, Trajectory]:
    """Integrate the stack ``y0``, one state per name on axis 0, and return
    name -> Trajectory.  With ``joint`` the stack holds one joint state (tail
    ``joint_tail_weight``, purity checked), else field operators (tail
    |``fock.tail_weight``|, both read each step as one gather of the top
    diagonal entries, ``_tail_entries``).

    The state is the lab-frame one, stepped in place as z <- P(h) Phi_0(z):
    Phi_0 is the rotating-frame RK4 step at frame time 0 and P(h) the lab
    phases of one step (``model._lab_phases``).  This is the rotating-frame
    step at every frame time tau, taken to the lab frame, because
    Phi_tau(y) = Phi_0(y P(tau)) conj(P(tau)) entrywise (``model``'s frame
    identity).  So the run makes three generators, at frame times 0, h/2 and
    h, binds its stages once to arrays made once per run (stages 2 and 3 are
    one bound stage; one work array serves all), and keeps plain copies of
    the state."""
    keep = grid.check_steps(store_steps)
    h = grid.step
    y = np.array(y0, dtype=complex)  # a copy, stepped in place
    # k1 gathers the stage sum; k2, k3 and k4 are written in turn into kn,
    # each added to k1 before the next stage overwrites it
    k1, kn, stage, work = (np.empty_like(y) for _ in range(4))
    g_start, g_mid, g_end = (rhs.generator(t) for t in (0.0, 0.5 * h, h))
    first = rhs.bind(g_start, y, k1, work)
    middle = rhs.bind(g_mid, stage, kn, work)  # stages 2 and 3
    last = rhs.bind(g_end, stage, kn, work)
    phases = _lab_phases(h, params, 2 if joint else 1)
    tail_at = _tail_entries(y, joint)
    entries = y.reshape(-1).view(np.float64)  # y's parts, real at even places; a view
    kept = {}
    tail_max = np.full(len(names), -np.inf)
    for k in range(max(keep) + 1):
        if k:
            # y += (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
            first()
            np.multiply(k1, 0.5 * h, out=stage)
            stage += y
            middle()
            np.multiply(kn, 0.5 * h, out=stage)
            stage += y
            kn *= 2.0
            k1 += kn
            middle()
            np.multiply(kn, h, out=stage)
            stage += y
            kn *= 2.0
            k1 += kn
            last()
            k1 += kn
            k1 *= h / 6.0
            y += k1
            np.multiply(y, phases, out=y)
        t = grid.t_start + k * h
        w = entries[tail_at].sum(axis=1)
        w = w[:1] + w[1:] if joint else np.abs(w)
        if (w > TAIL_LIMIT).any():
            i = np.flatnonzero(w > TAIL_LIMIT)[0]
            raise TailOverflow(f"{names[i]} tail weight {w[i]:.3e} > {TAIL_LIMIT} at t={t:.6g}")
        np.maximum(tail_max, w, out=tail_max)
        if not k or k in keep:
            for name, state in zip(names, y):
                _check_stored(state, t, name, joint)
        if k in keep:
            kept[k] = [state.copy() for state in y]
    return {name: Trajectory(grid=grid, states={k: states[i] for k, states in kept.items()},
                             tail_max=float(tail_max[i]))
            for i, name in enumerate(names)}


def integrate_joint(rho0: np.ndarray, params: ModelParams, grid: TimeGrid,
                    store_steps: Iterable[int] = None) -> Trajectory:
    """RK4 integration of the joint 2N x 2N equation of motion with the
    rotating-frame step, which moves omega a+a and its RK4 error out of the
    generator; each kept state is returned in the lab frame.

    ``rho0``, an array-like, must be Hermitian within ``model.HERM_TOL``; its
    Hermitian part is integrated.
    """
    n = params.n_trunc
    if np.shape(rho0) != (2 * n, 2 * n):
        raise ValueError(f"initial state has shape {np.shape(rho0)}, expected {(2 * n, 2 * n)}")
    rho0 = _hermitian_part(rho0, "joint")
    require_step(params, grid.step)
    require_stable(params, grid.step)
    rhs = rotating_frame_rhs(params)  # rho0 is Hermitian, as it requires
    return _rk4(rhs, rho0[None], params, grid, store_steps, ["joint"], joint=True)["joint"]


def integrate_component(initial: Mapping[str, np.ndarray], params: ModelParams,
                        grid: TimeGrid, store_steps: Iterable[int] = None) -> dict[str, Trajectory]:
    """RK4 integration of decoupled components with the rotating-frame step,
    all in one (k, N, N) stack; each kept state is returned in the lab frame.

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
