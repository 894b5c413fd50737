"""Brute-force numerical ground truth: fixed-step RK4 integration of the
joint equation of motion and of the decoupled component equations on the
truncated Fock space with the rotating-frame step, stepping the lab-frame
state.

Fixed-step RK4 is used (rather than an adaptive solver) so runs are
deterministic and reproducible as regression baselines.  The joint
equation splits exactly into its plus, minus and cross components, so the
oracle has one right-hand side, a component stack's
(``model.decoupled_rhs``), one guarded start, ``_start``, and one loop,
``_rk4``: components asked for together run as one (k, N, N) stack in the
order asked, and a joint run is split into its plus, minus, cross stack,
stepped, and each kept stack embedded (``_embed``).  Each step works in
place: the state and the four RK4 stages are the rows of one buffer made
once per run, each stage, bound once per run, writes its row, each stage
input and the step sum is one weighted product of rows, the state takes
one step's lab phases, the tail entries are read with one ``np.take`` into
a block that is checked at every kept step and at least every
``TAIL_BLOCK`` steps, and a kept state is copied, or embedded.  The
right-hand side is evaluated in effective-generator form, each stage one
six-point stencil on the stack's entries with no matrix product
(``model.decoupled_rhs``: a run makes three generators, each the band
tables of the coupling at one frame time).  A joint, plus or minus
initial state must be Hermitian within ``model.HERM_TOL`` (ValueError
naming it otherwise), and its Hermitian part is integrated; the stencil
keeps it exactly Hermitian.  A run keeps exactly the steps
``store_steps`` (by default the last) and takes no step after the last of
them; ``TimeGrid.check_steps`` holds this rule here and in the doubled
route, and ``TimeGrid.step_index`` maps a time to its step.  ``TimeGrid``
and ``StepTooLarge`` live in ``fock``, the base the routes share, and are
re-exported here; this module imports only ``fock`` and ``model``.  A
step must pass the heuristic bound of ``require_step`` and the stability
bound of ``require_stable``: h times a norm bound of the rotating-frame
generator, 2||c (a + a+)||_2 + 2 gamma (N-1), at most
``STABILITY_LIMIT``, inside RK4's imaginary-axis limit 2 sqrt(2).  The
initial state and every kept state must be finite, and a joint one must
keep its purity at most 1 + ``PURITY_SLACK``; every step taken must keep
the tail weight of each state at most ``TAIL_LIMIT``.  Each failure
raises ``StepTooLarge`` or ``TailOverflow`` naming its cause and its
state ("joint", or the component kind).

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
    ComponentSet,
    CoupledRHS,
    _lab_phases,
    combine_components,
    decoupled_rhs,
    require_hermitian,
    split_components,
)

STEP_SAFETY = 0.1
STABILITY_LIMIT = 2.5
PURITY_SLACK = 1e-9
TAIL_LIMIT = 1e-6
TAIL_BLOCK = 64  # most steps whose tail weights are read before a check


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
        # t_start + step * k at each kept step k
        return self.grid.t_start + self.grid.step * np.array(list(self.states))

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


def _check_stored(y: np.ndarray, t: float, names: list[str], joint: bool) -> None:
    for name, state in zip(names, [y] if joint else y):  # a joint stack is one state
        if not np.all(np.isfinite(state)):
            raise StepTooLarge(f"unstable: {name} state is not finite at t={t:.6g}")
    if joint:
        # Tr(rho^2) = (|plus|^2 + |minus|^2) / 4 + |cross|^2 / 2, squared
        # Frobenius norms of the split of a Hermitian rho
        plus, minus, cross = y
        purity = (0.25 * (np.vdot(plus, plus).real + np.vdot(minus, minus).real)
                  + 0.5 * np.vdot(cross, cross).real)
        if purity > 1.0 + PURITY_SLACK:
            raise StepTooLarge(f"unstable: purity {purity:.3e} > 1 at t={t:.6g}")


def _hermitian_part(y: np.ndarray, name: str) -> np.ndarray:
    """(y + y+) / 2 for an initial ``name`` state within ``model.HERM_TOL`` of Hermitian
    (ValueError otherwise); on exactly Hermitian input it is y, bit for bit."""
    y = np.asarray(y)
    require_hermitian(y, f"initial {name} state")
    return 0.5 * (y + y.conj().T)


def _tail_entries(y: np.ndarray) -> np.ndarray:
    """Indices into ``y.reshape(-1).view(float)`` of the real parts of the top
    ``fock.TAIL_LEVELS`` diagonal entries, one row per slice of the stack."""
    m = y.shape[-1]
    levels = np.arange(m)[-TAIL_LEVELS:]
    # flat index of (l, l) in slice i of the stack
    return 2 * (np.arange(len(y))[:, None] * m * m + levels * (m + 1))


def _embed(stack: np.ndarray) -> np.ndarray:
    """The joint state split into the (Hermitian plus, minus, cross) ``stack``:
    rho3 and i rho2 are cross's Hermitian and anti-Hermitian parts, each exactly,
    so with exactly Hermitian plus and minus the state is exactly Hermitian."""
    plus, minus, cross = stack
    skew = 0.5 * (cross - cross.conj().T)  # i rho2
    return combine_components(ComponentSet(
        rho0=0.5 * (plus + minus), rho1=0.5 * (plus - minus),
        rho2=-1j * skew, rho3=0.5 * (cross + cross.conj().T)))


def _rk4(rhs: CoupledRHS, y0: np.ndarray, params: ModelParams, grid: TimeGrid,
         store_steps: Iterable[int], names: list[str], joint: bool) -> dict[str, Trajectory]:
    """Integrate the stack ``y0`` and return name -> Trajectory.  Without
    ``joint`` it holds one field operator per name (tail |``fock.tail_weight``|);
    with it, the plus, minus, cross split of the one named joint state, kept
    embedded (``_embed``; purity checked; tail the ``joint_tail_weight`` of the
    embedding, bit for bit).  Both tails are read as top diagonal entries
    (``_tail_entries``).

    The state is the lab-frame one, stepped in place as z <- P(h) Phi_0(z):
    Phi_0 is the rotating-frame RK4 step at frame time 0 and P(h) the lab
    phases of one step (``model._lab_phases``).  This is the rotating-frame
    step at every frame time tau, taken to the lab frame, because
    Phi_tau(y) = Phi_0(y P(tau)) conj(P(tau)) entrywise (``model``'s frame
    identity).  So the run makes three generators, at frame times 0, h/2 and
    h, and binds its four stages once.

    The step's vectors are the rows (k1, y, k2, k3, k4) of one buffer, and
    each stage input y + c k_i and the step sum y + (h/6)(k1 + 2 k2 + 2 k3 +
    k4) is one product of a weight vector with the rows' real parts (a BLAS
    gemv; its arithmetic does not depend on an entry's place or on the BLAS
    thread count, so a Hermitian sum stays exactly Hermitian, as the tests
    hold), written into the stage input array; the lab phases then take the
    step sum back into y.  The tail
    entries are read with one ``np.take`` per step into a block of at most
    ``TAIL_BLOCK`` steps, checked at every kept step and whenever the block
    is full, so an overflow is raised at its first step, before any later
    kept state is checked.  The run holds seven arrays the size of the
    stack (the five rows, the stage input and the stages' work array) and
    the kept states: plain copies of the slices, or a joint run's
    embeddings, each 4/3 the size of its stack, made as the step is kept;
    its right-hand side adds four band tables per generator and one scratch
    array per bound stage."""
    keep = grid.check_steps(store_steps)
    h = grid.step
    rows = np.zeros((5,) + np.shape(y0), dtype=complex)
    rows[1] = y0
    k1, y, k2, k3, k4 = rows
    # zeroed: a gemv may scale its output by beta = 0 rather than set it, and
    # 0 * NaN from uninitialized memory is NaN
    stage, work = np.zeros_like(y), np.empty_like(y)
    g_start, g_mid, g_end = (rhs.generator(t) for t in (0.0, 0.5 * h, h))
    stages = (rhs.bind(g_start, y, k1, work), rhs.bind(g_mid, stage, k2, work),
              rhs.bind(g_mid, stage, k3, work), rhs.bind(g_end, stage, k4, work))
    # after stage i, the input of stage i + 1 (y + (h/2) k1, y + (h/2) k2,
    # y + h k3) or, after the last, the step sum, over rows of ``parts``
    parts = rows.reshape(5, -1).view(np.float64)
    sums = [(np.array([0.5 * h, 1.0]), parts[:2]), (np.array([1.0, 0.5 * h]), parts[1:3]),
            (np.array([1.0, h]), parts[1::2]),
            (np.array([h / 6.0, 1.0, h / 3.0, h / 3.0, h / 6.0]), parts)]
    into = stage.reshape(-1).view(np.float64)
    phases = _lab_phases(h, params)
    tail_at = _tail_entries(y)
    entries = y.reshape(-1).view(np.float64)  # y's parts, real at even places; a view
    block = np.empty((TAIL_BLOCK,) + tail_at.shape)
    read = 0  # steps in ``block`` not yet checked
    kept = {}
    tail_max = np.full(len(names), -np.inf)
    for k in range(max(keep) + 1):
        if k:
            for stage_i, (weights, terms) in zip(stages, sums):
                stage_i()
                np.matmul(weights, terms, out=into)
            np.multiply(stage, phases, out=y)
        np.take(entries, tail_at, out=block[read], mode="clip")
        read += 1
        stored = not k or k in keep
        if stored or read == TAIL_BLOCK:
            if joint:  # the embedding's diagonals: upper atom block, then lower
                rho0, rho3 = 0.5 * (block[:read, :1] + block[:read, 1:2]), block[:read, 2:]
                w = (0.5 * (rho0 + rho3)).sum(axis=2) + (0.5 * (rho0 - rho3)).sum(axis=2)
            else:
                w = np.abs(block[:read].sum(axis=2))
            over = w > TAIL_LIMIT
            if over.any():
                step, i = np.argwhere(over)[0]
                t = grid.t_start + (k - read + 1 + int(step)) * h
                raise TailOverflow(f"{names[i]} tail weight {w[step, i]:.3e} > {TAIL_LIMIT}"
                                   f" at t={t:.6g}")
            np.maximum(tail_max, w.max(axis=0), out=tail_max)
            read = 0
        if stored:
            _check_stored(y, grid.t_start + k * h, names, joint)
        if k in keep:
            kept[k] = [_embed(y)] if joint else [state.copy() for state in y]
    return {name: Trajectory(grid=grid, states={k: states[i] for k, states in kept.items()},
                             tail_max=float(tail_max[i]))
            for i, name in enumerate(names)}


def _start(initial: Mapping[str, np.ndarray], params: ModelParams, grid: TimeGrid,
           store_steps: Iterable[int], joint: bool) -> dict[str, Trajectory]:
    """The guarded start of both entry points: the right-hand side of
    ``initial``'s kinds, in its order, the Hermitian parts of its plus and
    minus operators, the step and stability bounds, then ``_rk4`` on the
    stack, its one state named "joint" when ``joint``."""
    rhs = decoupled_rhs(list(initial), params)
    y0 = np.stack([op0 if kind == "cross" else _hermitian_part(op0, kind)
                   for kind, op0 in initial.items()])
    require_step(params, grid.step)
    require_stable(params, grid.step)
    return _rk4(rhs, y0, params, grid, store_steps, ["joint"] if joint else list(initial), joint)


def integrate_joint(rho0: np.ndarray, params: ModelParams, grid: TimeGrid,
                    store_steps: Iterable[int] = None) -> Trajectory:
    """RK4 integration of the joint 2N x 2N equation of motion with the
    rotating-frame step, which moves omega a+a and its RK4 error out of the
    generator; each kept state is returned in the lab frame.

    ``rho0``, an array-like, must be Hermitian within ``model.HERM_TOL``; its
    Hermitian part is integrated, as the stack of its plus, minus and cross
    components, and each kept stack is embedded back into a joint state.
    """
    n = params.n_trunc
    if np.shape(rho0) != (2 * n, 2 * n):
        raise ValueError(f"initial state has shape {np.shape(rho0)}, expected {(2 * n, 2 * n)}")
    cs = split_components(_hermitian_part(rho0, "joint"))
    return _start({"plus": cs.plus, "minus": cs.minus, "cross": cs.cross}, params, grid,
                  store_steps, joint=True)["joint"]


def integrate_component(initial: Mapping[str, np.ndarray], params: ModelParams,
                        grid: TimeGrid, store_steps: Iterable[int] = None) -> dict[str, Trajectory]:
    """RK4 integration of decoupled components with the rotating-frame step,
    all in one (k, N, N) stack; each kept state is returned in the lab frame.

    ``initial`` maps each kind ("plus", "minus" or "cross") to its N x N
    initial operator; the stack holds the kinds in ``initial``'s order, and
    the result maps each kind, in that order, to its Trajectory.  A plus or
    minus operator must be Hermitian within ``model.HERM_TOL``; its Hermitian
    part is integrated.
    """
    n = params.n_trunc
    if not initial:
        raise ValueError("no component to integrate")
    for kind, op0 in initial.items():
        if np.shape(op0) != (n, n):
            raise ValueError(f"initial {kind} operator has shape {np.shape(op0)},"
                             f" expected {(n, n)}")
    return _start(initial, params, grid, store_steps, joint=False)
