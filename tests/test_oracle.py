import math

import numpy as np
import pytest

from jcdamp import model, oracle
from jcdamp.doubled import commutator_generator_factory, evolve_vectorized, vectorize
from jcdamp.fock import ModelParams, annihilation, coherent_state, tail_weight
from jcdamp.model import (
    ATOM_DOWN,
    ATOM_UP,
    SIGMA_Z,
    hamiltonian_full,
    joint_tail_weight,
    split_components,
)
from jcdamp.oracle import (
    TAIL_LIMIT,
    StepTooLarge,
    TailOverflow,
    TimeGrid,
    integrate_component,
    integrate_joint,
)
from reference import (
    dense_decoupled_rhs,
    lab_frame_rhs,
    lab_rk4_states,
    rk4_states,
    weighted_lab_rk4_states,
)


def coherent_joint(alpha, n, atom):
    v = coherent_state(alpha, n).vec
    return np.kron(np.outer(atom, atom.conj()), np.outer(v, v.conj()))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    g = TimeGrid(0.0, 2.0, 8)
    assert g.step == pytest.approx(0.25)
    assert [g.step_index(t) for t in np.linspace(0.0, 2.0, 9)] == list(range(9))


@pytest.mark.parametrize("t_start, t_end", [(0.0, math.inf), (-math.inf, 1.0),
                                             (-math.inf, math.inf), (0.0, math.nan)])
def test_time_grid_rejects_non_finite_endpoints(t_start, t_end):
    # an infinite t_end would make the grid times start with nan, and the doubled
    # route's Taylor plan would reach math.ceil(nan)
    with pytest.raises(ValueError, match="t_start and t_end must be finite"):
        TimeGrid(t_start, t_end, 10)


@pytest.mark.parametrize("bad", [2.5, 20.5, 20.0, True, np.float64(8.0), "8"])
def test_time_grid_rejects_a_non_integer_step_count(bad):
    # 2.5 steps would run the grid times past t_end, and 20.5 would reach range()
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TimeGrid(0.0, 1.0, bad)


def test_time_grid_takes_numpy_integers():
    g = TimeGrid(0.0, 1.0, np.int64(8))
    assert (g.n_steps, g.step) == (8, TimeGrid(0.0, 1.0, 8).step) and g.step_index(1.0) == 8
    assert g.check_steps(np.arange(3, 9, 5)) == {3, 8}


@pytest.mark.parametrize("bad", [[10.0], [3, 4.5], [True], [np.float64(2.0)]])
def test_store_steps_must_be_integers(bad):
    n = 8
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.0, 1.0, 40)
    with pytest.raises(ValueError, match="store_steps must be integers"):
        grid.check_steps(bad)
    with pytest.raises(ValueError, match="store_steps must be integers"):
        integrate_joint(coherent_joint(0.3, n, ATOM_UP), p, grid, store_steps=bad)
    with pytest.raises(ValueError, match="store_steps must be integers"):
        evolve_vectorized(commutator_generator_factory(p, 1), vectorize(np.eye(n)), grid,
                          store_steps=bad)


def test_joint_run_takes_an_array_like_initial_state():
    # as integrate_component does: a nested list runs as its array
    n = 12
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_joint(0.3, n, ATOM_UP)
    grid = TimeGrid(0.0, 1.0, 40)
    got = integrate_joint(rho0.tolist(), p, grid, store_steps=[0, 40])
    want = integrate_joint(rho0, p, grid, store_steps=[0, 40])
    for k in (0, 40):
        assert np.array_equal(got.states[k], want.states[k])
    with pytest.raises(ValueError, match="initial state has shape"):
        integrate_joint(rho0[:-1].tolist(), p, grid)



def test_step_index_maps_grid_times_only():
    g = TimeGrid(0.5, 1.5, 100)
    assert g.step_index(0.5) == 0
    assert g.step_index(0.75) == 25
    assert g.step_index(0.75 + 5e-10) == 25
    assert g.step_index(1.5) == 100
    for t in (0.7505, 0.49, 1.51):
        with pytest.raises(ValueError):
            g.step_index(t)

def test_step_bound_enforced():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.5, n_trunc=20)
    rho0 = coherent_joint(0.5, 20, ATOM_DOWN)
    with pytest.raises(StepTooLarge):
        integrate_joint(rho0, p, TimeGrid(0.0, 5.0, 10))


def test_tail_overflow_raised():
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.1, n_trunc=10)
    rho0 = coherent_joint(2.2, 10, ATOM_DOWN)  # heavy boundary population
    with pytest.raises(TailOverflow):
        integrate_joint(rho0, p, TimeGrid(0.0, 1.0, 200))


def test_uncoupled_lossy_cavity_stays_coherent():
    n = 24
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.25, n_trunc=n)
    rho0 = coherent_joint(1.0, n, ATOM_DOWN)
    grid = TimeGrid(0.0, 4.0, 800)
    traj = integrate_joint(rho0, p, grid, store_steps=grid.stored_steps(100))
    for t, state in zip(traj.times, traj.states.values()):
        alpha_t = np.exp(-(1j * p.omega + 0.5 * p.gamma) * t)
        psi = np.kron(ATOM_DOWN, coherent_state(alpha_t, n).vec)
        fidelity = np.real(psi.conj() @ state @ psi)
        assert fidelity >= 1.0 - 1e-7
        assert abs(np.trace(state).real - 1.0) < 1e-8


def test_unitary_evolution_preserves_purity():
    n = 14
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.0, n_trunc=n)
    rho0 = coherent_joint(0.9, n, ATOM_UP)
    grid = TimeGrid(0.0, 3.0, 600)
    traj = integrate_joint(rho0, p, grid, store_steps=grid.stored_steps(200))
    for state in traj.states.values():
        assert abs(np.trace(state @ state).real - 1.0) < 1e-10


def test_single_step_matches_second_order_taylor():
    # undamped: one RK4 step of <sigma_z> agrees with the 2nd-order
    # Taylor expansion of the unitary equation to O(h^3)
    n = 14
    p = ModelParams(omega=1.0, coupling=0.3, gamma=0.0, n_trunc=n)
    rho0 = coherent_joint(0.7, n, ATOM_UP)
    h_mat = hamiltonian_full(p)
    sz = np.kron(SIGMA_Z, np.eye(n))

    def taylor2(h):
        d1 = -1j * (h_mat @ rho0 - rho0 @ h_mat)
        d2 = -1j * (h_mat @ d1 - d1 @ h_mat)
        rho = rho0 + h * d1 + 0.5 * h * h * d2
        return np.trace(sz @ rho).real

    def rk4(h):
        traj = integrate_joint(rho0, p, TimeGrid(0.0, h, 1))
        return np.trace(sz @ traj.final).real

    h1, h2 = 2e-2, 1e-2
    dev1 = abs(rk4(h1) - taylor2(h1))
    dev2 = abs(rk4(h2) - taylor2(h2))
    assert dev1 > 0
    # agreement to O(h^3): at-least-cubic decay of the discrepancy
    assert dev1 / dev2 >= 6.0
    assert dev1 < 10.0 * h1 ** 3
    assert dev2 < 10.0 * h2 ** 3


def test_positivity_along_standard_run():
    n = 20
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_joint(1.0, n, ATOM_UP)
    grid = TimeGrid(0.0, 5.0, 1250)
    traj = integrate_joint(rho0, p, grid, store_steps=grid.stored_steps(250))
    for state in traj.states.values():
        eigs = np.linalg.eigvalsh(0.5 * (state + state.conj().T))
        assert eigs.min() > -1e-7


def test_rk4_convergence_order():
    n = 12
    p = ModelParams(omega=1.0, coupling=0.15, gamma=0.3, n_trunc=n)
    rho0 = coherent_joint(0.8, n, ATOM_UP)

    def final(steps):
        return integrate_joint(rho0, p, TimeGrid(0.0, 1.0, steps)).final

    ref = final(160)  # quarter-step reference
    e_h = np.max(np.abs(final(40) - ref))
    e_h2 = np.max(np.abs(final(80) - ref))
    assert e_h / e_h2 >= 12.0


def test_joint_run_integrates_in_the_rotating_frame():
    # the rotating frame moves omega a+a out of the generator, and the RK4
    # error with it: a lab-frame run here is 4.3e-9 from its h/4 run
    n = 12
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_joint(0.8, n, ATOM_UP)

    def final(steps):
        return integrate_joint(rho0, p, TimeGrid(0.0, 2.0, steps)).final

    assert np.max(np.abs(final(200) - final(800))) < 1e-11


def test_component_consistency_with_joint():
    # the joint run's lab-frame state, split, matches the component
    # integrations, both returned in the lab frame
    n = 40
    p = ModelParams(omega=1.0, coupling=0.05, gamma=0.1, n_trunc=n)
    v = coherent_state(1.0, n).vec
    rho_j0 = coherent_joint(1.0, n, ATOM_UP)
    t_end = 10.0
    steps = 2500
    joint = integrate_joint(rho_j0, p, TimeGrid(0.0, t_end, steps))
    cs = split_components(joint.final)
    rho_f0 = np.outer(v, v.conj())
    comps = integrate_component({"plus": rho_f0, "minus": rho_f0, "cross": rho_f0}, p,
                                TimeGrid(0.0, t_end, steps))
    for kind, target in (("plus", cs.plus), ("minus", cs.minus), ("cross", cs.cross)):
        assert np.max(np.abs(comps[kind].final - target)) < 1e-7


def test_joint_run_is_the_embedded_component_stack(monkeypatch):
    # the joint run steps the plus/minus/cross stack split from rho0, under
    # the one component right-hand side (three generators, each the four
    # (3, N, N) band tables of the stack), and
    # embeds each kept stack: its states are those of the component run on
    # the split, embedded, bit for bit, each exactly Hermitian, and its
    # tail_max is the largest joint_tail_weight of its states, bit for bit
    built = _counted_generators(monkeypatch)
    n, steps = 12, 200
    p = ModelParams(omega=1.3, coupling=0.15, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.4, 1.4, steps)
    rho0 = _entangled_joint(n)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    keep = range(steps + 1)
    joint = integrate_joint(rho0, p, grid, store_steps=keep)
    assert [g.shape for _, g in built] == [(4, 3, n, n)] * 3
    cs = split_components(rho0)
    trajs = integrate_component({"plus": cs.plus, "minus": cs.minus, "cross": cs.cross}, p,
                                grid, store_steps=keep)
    for k in keep:
        want = oracle._embed(np.stack([trajs[kind].states[k] for kind in model._KINDS]))
        assert np.array_equal(joint.states[k], want)
        assert np.array_equal(want, want.conj().T)
    assert joint.tail_max == max(joint_tail_weight(state) for state in joint.states.values())
    assert np.max(np.abs(joint.states[0] - rho0)) <= 1e-16


def _equation_one_deviation(rho0):
    """Largest entry of the joint run's kept states minus RK4 of the dense
    lab-frame equation (1), -i[H, rho] + D[rho] from ``hamiltonian_full``, at
    h/4 (``reference.lab_frame_rhs``), over every 20th of 200 steps."""
    n, steps = 12, 200
    p = ModelParams(omega=1.0, coupling=0.2, gamma=0.3, n_trunc=n)
    grid = TimeGrid(0.0, 2.0, steps)
    keep = range(0, steps + 1, 20)
    got = integrate_joint(rho0, p, grid, store_steps=keep)
    lab = rk4_states(lab_frame_rhs(p), rho0, grid.step / 4, 4 * steps)
    return max(np.max(np.abs(got.states[k] - lab[4 * k])) for k in keep)


# The two runs differ by their RK4 errors: the lab-frame reference carries
# omega a+a in its generator, so it runs at h/4 (1e-9 off at h), and the
# deviation left is the joint run's own, 6.3e-12 (coherent) and 4.1e-12
# (entangled) here.  The bound is 8x the larger; a wrong sign in
# model._KINDS moves the states by 1.7e-2 or more, 9 orders above it.
EQUATION_ONE_BOUND = 5e-11


def _equation_one_initials(n=12):
    return {"coherent": coherent_joint(0.5, n, ATOM_UP), "entangled": _entangled_joint(n)}


@pytest.mark.parametrize("initial", ["coherent", "entangled"])
def test_joint_run_integrates_equation_one(initial):
    # the stack, split from rho0 and embedded back, integrates the paper's
    # joint Lindblad equation, held against its dense lab-frame form
    rho0 = _equation_one_initials()[initial]
    assert _equation_one_deviation(0.5 * (rho0 + rho0.conj().T)) <= EQUATION_ONE_BOUND


@pytest.mark.parametrize("initial", ["coherent", "entangled"])
def test_equation_one_check_fails_on_a_wrong_component_sign(monkeypatch, initial):
    # minus evolving under plus's front factor: the check above fails
    monkeypatch.setitem(model._KINDS, "minus", (-1j, -1.0))
    rho0 = _equation_one_initials()[initial]
    assert _equation_one_deviation(0.5 * (rho0 + rho0.conj().T)) > EQUATION_ONE_BOUND


def test_component_trace_conserved_when_uncoupled():
    n = 16
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.3, n_trunc=n)
    v = coherent_state(0.8, n).vec
    rho0 = np.outer(v, v.conj())
    grid = TimeGrid(0.0, 3.0, 600)
    trajs = integrate_component({"plus": rho0, "minus": rho0}, p, grid,
                                store_steps=grid.stored_steps(150))
    for traj in trajs.values():
        for state in traj.states.values():
            assert abs(np.trace(state) - 1.0) < 1e-10


def test_plus_minus_trace_conserved_with_coupling():
    # commutator coupling is traceless, so each branch keeps its trace
    n = 18
    p = ModelParams(omega=1.0, coupling=0.12, gamma=0.2, n_trunc=n)
    v = coherent_state(0.9, n).vec
    rho0 = np.outer(v, v.conj())
    trajs = integrate_component({"plus": rho0, "minus": rho0}, p, TimeGrid(0.0, 4.0, 1000))
    for traj in trajs.values():
        assert abs(np.trace(traj.final) - 1.0) < 1e-8


def test_cross_zero_stays_zero():
    n = 10
    p = ModelParams(omega=1.0, coupling=0.2, gamma=0.3, n_trunc=n)
    traj = integrate_component({"cross": np.zeros((n, n), dtype=complex)}, p,
                               TimeGrid(0.0, 2.0, 400))["cross"]
    assert np.max(np.abs(traj.final)) == 0.0


def test_rejects_unknown_kind_and_bad_shapes():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.1, n_trunc=8)
    with pytest.raises(ValueError):
        integrate_component({"sideways": np.eye(8, dtype=complex)}, p,
                            TimeGrid(0.0, 1.0, 100))
    with pytest.raises(ValueError):
        integrate_component({"plus": np.eye(7, dtype=complex)}, p,
                            TimeGrid(0.0, 1.0, 100))
    with pytest.raises(ValueError):
        integrate_joint(np.eye(8, dtype=complex), p, TimeGrid(0.0, 1.0, 100))


def test_trajectory_state_lookup():
    n = 12
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.1, n_trunc=n)
    rho0 = coherent_joint(0.3, n, ATOM_DOWN)
    grid = TimeGrid(0.0, 1.0, 100)
    traj = integrate_joint(rho0, p, grid, store_steps=grid.stored_steps(25))
    assert traj.states[grid.step_index(0.25)] is list(traj.states.values())[1]
    with pytest.raises(KeyError):
        traj.states[grid.step_index(0.3)]


def test_store_steps_keep_exactly_the_given_steps():
    n = 12
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_joint(0.5, n, ATOM_UP)
    grid = TimeGrid(0.0, 1.0, 40)
    full = integrate_joint(rho0, p, grid, store_steps=range(41))
    assert list(full.states) == list(range(41))
    part = integrate_joint(rho0, p, grid, store_steps=[30, 7, 7])
    assert list(part.states) == [7, 30]
    for k, state in part.states.items():
        assert np.array_equal(state, full.states[k])
    assert np.array_equal(part.times, full.times[list(part.states)])
    # the run ends at step 30, so its tail record covers steps 0..30
    assert part.tail_max == max(joint_tail_weight(full.states[k]) for k in range(31))
    assert list(integrate_joint(rho0, p, grid).states) == [40]

    comp_full = integrate_component({"cross": rho0[:n, :n]}, p, grid,
                                    store_steps=range(41))["cross"]
    comp = integrate_component({"cross": rho0[:n, :n]}, p, grid, store_steps=[13])["cross"]
    assert list(comp.states) == [13]
    for k, state in comp.states.items():
        assert np.array_equal(state, comp_full.states[k])


def test_component_run_takes_four_evaluations_per_step_to_its_last_kept_step(monkeypatch):
    # every call of a bound stage is one right-hand side evaluation
    calls = []
    real = oracle.decoupled_rhs

    def counted(*args):
        rhs = real(*args)

        def bind(*arrays):
            stage = rhs.bind(*arrays)

            def call():
                calls.append(stage)
                return stage()
            return call
        return model.CoupledRHS(rhs.generator, bind)

    monkeypatch.setattr(oracle, "decoupled_rhs", counted)
    n = 8
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    vacuum = np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = 1.0
    for k in (1, 17, 40):
        calls.clear()
        trajs = integrate_component({"plus": vacuum}, p,
                                    TimeGrid(0.0, 1.0, 40), store_steps=[k])
        assert len(calls) == 4 * k
        assert list(trajs["plus"].states) == [k]


def test_initial_state_is_checked_when_not_kept():
    n = 12
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_joint(0.3, n, ATOM_UP) * (1.0 + 1e-8)
    with pytest.raises(StepTooLarge, match="purity .* at t=0$"):
        integrate_joint(rho0, p, TimeGrid(0.0, 1.0, 40), store_steps=[20])


def _counted_generators(monkeypatch):
    """The G of every ``generator`` call of the oracle's right-hand side, in
    call order, through a wrapped builder."""
    built = []

    def counted(build):
        def wrapped(*args):
            rhs = build(*args)

            def generator(t):
                g = rhs.generator(t)
                built.append((t, g))
                return g
            return model.CoupledRHS(generator, rhs.bind)
        return wrapped

    monkeypatch.setattr(oracle, "decoupled_rhs", counted(oracle.decoupled_rhs))
    return built


def test_coupling_built_three_times_per_run(monkeypatch):
    # the oracle steps the lab-frame state with the rotating-frame step at
    # frame time 0, so a run builds the generator, with the coupling's bands,
    # three times, at frame times 0, h/2 and h (RK4 stages 2 and 3 share one),
    # however many steps
    built = _counted_generators(monkeypatch)
    n = 10
    p = ModelParams(omega=1.3, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_joint(0.5, n, ATOM_UP)
    cs = split_components(rho0)
    for steps in (50, 400):
        grid = TimeGrid(0.4, 1.4, steps)
        times = [0.0, 0.5 * grid.step, grid.step]
        built.clear()
        integrate_joint(rho0, p, grid)
        assert [t for t, _ in built] == times
        built.clear()
        integrate_component({"plus": cs.plus, "minus": cs.minus, "cross": cs.cross}, p, grid)
        assert [t for t, _ in built] == times


def _twin_states(rhs, y0, h, steps, phases):
    """The allocating twin of the oracle's step, after holding it to the
    left-to-right sum of ``lab_rk4_states`` within 1e-14 of the stack's
    largest entry at every step."""
    twin = weighted_lab_rk4_states(rhs, y0, h, steps, phases)
    for got, want in zip(twin, lab_rk4_states(rhs, y0, h, steps, phases)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    return twin


def test_in_place_stages_match_the_allocating_rk4_loop():
    # the stages bound once to the rows of the loop's one buffer, with every
    # sum a weighted row product, give the states of the loop that makes
    # every stage and sum anew, bit for bit: both take the lab-frame step
    # z <- P(h) Phi_0(z).  The oracle stacks the kinds as asked (plus,
    # cross, minus), the twin plus, minus, cross: a slice's place in the
    # stack does not change its values
    n, steps = 14, 30
    p = ModelParams(omega=1.1, coupling=0.2, gamma=0.3, n_trunc=n)
    cs = split_components(coherent_joint(0.6 + 0.2j, n, ATOM_UP))
    initial = {"plus": 0.5 * (cs.plus + cs.plus.conj().T), "cross": cs.cross,
               "minus": 0.5 * (cs.minus + cs.minus.conj().T)}  # as the oracle integrates them
    grid = TimeGrid(0.3, 0.9, steps)
    trajs = integrate_component(initial, p, grid, store_steps=range(steps + 1))
    kinds = list(model._KINDS)
    want = _twin_states(model.decoupled_rhs(kinds, p),
                        np.stack([initial[kind] for kind in kinds]), grid.step, steps,
                        model._lab_phases(grid.step, p))
    for i, kind in enumerate(kinds):
        assert all(np.array_equal(trajs[kind].states[k], want[k][i]) for k in range(steps + 1))


def _band_tables(g, h):
    """The stencil's four band tables from dense (k, N, N) G and H: the
    coefficients of y_{i+1,j}, y_{i,j+1}, y_{i-1,j} and y_{i,j-1} in entry
    (i, j) of G y + y H, G_{i,i+1}, H_{j+1,j}, G_{i,i-1} and H_{j-1,j}."""
    tables = np.zeros((4,) + g.shape, dtype=complex)
    tables[0, :, :-1, :] = np.diagonal(g, 1, axis1=1, axis2=2)[:, :, None]
    tables[1, :, :, :-1] = np.diagonal(h, -1, axis1=1, axis2=2)[:, None, :]
    tables[2, :, 1:, :] = np.diagonal(g, -1, axis1=1, axis2=2)[:, :, None]
    tables[3, :, :, 1:] = np.diagonal(h, 1, axis1=1, axis2=2)[:, None, :]
    return tables


def test_band_written_coupling_matches_the_dense_build_bit_for_bit():
    # the coupling's bands, written into the stencil's tables, hold the bits
    # of the dense build front (a+ e^{iwt} + a e^{-iwt}), G, and of H = G+
    # (plus, minus) or G (cross), at a new time, a repeated one and t = 0;
    # whole runs equal the lab-frame RK4 step, with the oracle's weighted
    # sums, on the dense right-hand side within 1e-14 of the stack's largest
    # entry at every step (the stencil sums the terms in another order)
    n, steps = 10, 50
    p = ModelParams(omega=1.3, coupling=0.23, gamma=0.31, n_trunc=n)
    a = annihilation(n)
    for kinds in (["plus", "minus", "cross", "cross"], ["cross"]):
        fast = model.decoupled_rhs(kinds, p)
        fronts = np.array([model._KINDS[kind][0] * p.coupling for kind in kinds])
        for t in (0.0, 0.3, 0.3, 4.1):
            x = a.conj().T * np.exp(1j * p.omega * t) + a * np.exp(-1j * p.omega * t)
            g = fronts[:, None, None] * x
            h = np.stack([gk if kind == "cross" else gk.conj().T for kind, gk in zip(kinds, g)])
            assert np.array_equal(fast.generator(t), _band_tables(g, h))

    grid = TimeGrid(0.2, 1.2, steps)
    rho0 = coherent_joint(0.35 + 0.1j, n, (ATOM_UP + ATOM_DOWN) / np.sqrt(2.0))
    cs = split_components(0.5 * (rho0 + rho0.conj().T))
    initial = {"plus": 0.5 * (cs.plus + cs.plus.conj().T), "cross": cs.cross,
               "minus": 0.5 * (cs.minus + cs.minus.conj().T)}
    trajs = integrate_component(initial, p, grid, store_steps=range(steps + 1))
    kinds = list(model._KINDS)  # the oracle stacks initial's order, plus, cross, minus
    want = _twin_states(dense_decoupled_rhs(kinds, p),
                        np.stack([initial[kind] for kind in kinds]), grid.step, steps,
                        model._lab_phases(grid.step, p))
    for k in range(steps + 1):
        got = np.stack([trajs[kind].states[k] for kind in kinds])
        assert np.max(np.abs(got - want[k])) <= 1e-14 * np.max(np.abs(want[k]))


def test_lab_frame_step_is_the_rotating_frame_method():
    # z <- P(h) Phi_0(z) is the rotating-frame RK4 step at every frame time,
    # taken to the lab frame (model's frame identity): a plus/minus/cross
    # stack equals the earlier method, rotating-frame states times their
    # step's lab phases, to rounding (at most 6e-15 of the stack's largest
    # entry here, and 5.4e-15 at N = 28 over 1,000 steps); the joint run is
    # this stack, embedded
    n, steps = 12, 400
    p = ModelParams(omega=1.3, coupling=0.15, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.4, 1.4, steps)
    initial = {kind: 0.5 * (op + op.conj().T) if kind != "cross" else op
               for kind, op in _component_initials(n).items()}
    trajs = integrate_component(initial, p, grid, store_steps=range(steps + 1))
    rotating = rk4_states(model.decoupled_rhs(list(initial), p),
                          np.stack(list(initial.values())), grid.step, steps)
    for k in range(steps + 1):
        # the whole stack at step k, relative to its largest entry
        want = np.multiply(rotating[k], model._lab_phases(k * grid.step, p))
        got = np.stack([traj.states[k] for traj in trajs.values()])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_tail_overflow_names_the_first_slice_to_cross():
    # plus starts in the vacuum and minus in |1>: both slices cross the tail
    # limit, minus first; the error names minus at its step, and before it a
    # component's tail_max is the largest |tail_weight| over every step
    n, steps = 8, 400
    p = ModelParams(omega=1.0, coupling=0.5, gamma=0.0, n_trunc=n)
    vacuum, excited = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = excited[1, 1] = 1.0
    grid = TimeGrid(0.0, 4.0, steps)
    states = _twin_states(model.decoupled_rhs(["plus", "minus"], p),
                          np.stack([vacuum, excited]), grid.step, steps,
                          model._lab_phases(grid.step, p))
    weights = np.array([np.abs(tail_weight(state)) for state in states])
    crossed = [int(np.argmax(weights[:, i] > TAIL_LIMIT)) for i in range(2)]
    assert 0 < crossed[1] < crossed[0]  # both cross, minus first
    k = crossed[1]
    t = grid.t_start + k * grid.step
    with pytest.raises(TailOverflow) as info:
        integrate_component({"plus": vacuum, "minus": excited}, p, grid)
    assert str(info.value) == f"minus tail weight {weights[k, 1]:.3e} > {TAIL_LIMIT} at t={t:.6g}"
    trajs = integrate_component({"plus": vacuum, "minus": excited}, p, grid, store_steps=[k - 1])
    for i, kind in enumerate(["plus", "minus"]):
        assert trajs[kind].tail_max == np.max(weights[:k, i])


@pytest.mark.parametrize("store_steps", [[146], [150, 400], [400]])
def test_tail_overflow_is_raised_at_its_first_step_across_check_blocks(store_steps):
    # the tail weights are checked in blocks of at most TAIL_BLOCK steps and at
    # kept steps: vacuum plus at c = 0.2 crosses at step 146, in the third
    # block, and the error names that step whichever later step is kept, while
    # tail_max over the 146 steps before it is the largest weight, bit for bit
    n, steps = 8, 400
    p = ModelParams(omega=1.0, coupling=0.2, gamma=0.0, n_trunc=n)
    vacuum = np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = 1.0
    grid = TimeGrid(0.0, 4.0, steps)
    states = _twin_states(model.decoupled_rhs(["plus"], p), vacuum[None], grid.step, steps,
                          model._lab_phases(grid.step, p))
    weights = np.array([abs(tail_weight(state[0])) for state in states])
    k = int(np.argmax(weights > TAIL_LIMIT))
    assert k == 146 and 2 * oracle.TAIL_BLOCK < k
    t = grid.t_start + k * grid.step
    with pytest.raises(TailOverflow) as info:
        integrate_component({"plus": vacuum}, p, grid, store_steps=store_steps)
    assert str(info.value) == f"plus tail weight {weights[k]:.3e} > {TAIL_LIMIT} at t={t:.6g}"
    traj = integrate_component({"plus": vacuum}, p, grid, store_steps=[k - 1])["plus"]
    assert traj.tail_max == np.max(weights[:k])


def test_tail_overflow_comes_before_a_later_kept_states_checks(monkeypatch):
    # with both step bounds lifted, h = 0.5 over N = 20 levels blows up: the
    # purity exceeds 1 from step 1 and the tail crosses its limit at step 4.
    # The tail steps read so far are checked at each kept step before its
    # state is, so keeping step 5 stops the run at step 4
    monkeypatch.setattr(oracle, "STEP_SAFETY", math.inf)
    monkeypatch.setattr(oracle, "STABILITY_LIMIT", math.inf)
    n = 20
    p = ModelParams(omega=1.0, coupling=1.0, gamma=0.0, n_trunc=n)
    rho0 = coherent_joint(1.0, n, ATOM_UP)
    grid = TimeGrid(0.0, 20.0, 40)
    with pytest.raises(oracle.StepTooLarge, match=r"unstable: purity .* at t=0.5$"):
        integrate_joint(rho0, p, grid, store_steps=[1, 40])
    with pytest.raises(TailOverflow, match=r"^joint tail weight .* at t=2$"):
        integrate_joint(rho0, p, grid, store_steps=[5, 40])


@pytest.mark.parametrize("bad", [[-1], [41], [3, 41]])
def test_store_steps_out_of_range_rejected(bad):
    n = 8
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.0, 1.0, 40)
    with pytest.raises(ValueError, match="store_steps"):
        integrate_joint(coherent_joint(0.3, n, ATOM_UP), p, grid, store_steps=bad)
    with pytest.raises(ValueError, match="store_steps"):
        integrate_component({"plus": np.eye(n, dtype=complex) / n}, p, grid, store_steps=bad)
    # the doubled route keeps steps by the same rule
    with pytest.raises(ValueError, match="store_steps"):
        evolve_vectorized(commutator_generator_factory(p, 1), vectorize(np.eye(n)), grid,
                          store_steps=bad)


def _entangled_joint(n):
    # an entangled atom-field state, Hermitian to rounding
    psi = (np.kron(ATOM_UP, coherent_state(0.5, n).vec)
           + (0.6 + 0.3j) * np.kron(ATOM_DOWN, coherent_state(-0.4j, n).vec))
    return np.outer(psi, psi.conj()) / np.vdot(psi, psi)


def _component_initials(n):
    # the plus, minus and (non-Hermitian) cross components of an entangled
    # atom-field state
    cs = split_components(_entangled_joint(n))
    return {"plus": cs.plus, "minus": cs.minus, "cross": cs.cross}


def test_component_stack_matches_one_kind_runs():
    # each slice of the batched run evolves on its own: a run of all three
    # kinds gives each kind's one-kind run, states and tail records alike
    n = 12
    p = ModelParams(omega=1.0, coupling=0.15, gamma=0.2, n_trunc=n)
    initial = _component_initials(n)
    grid = TimeGrid(0.0, 1.0, 200)
    batch = integrate_component(initial, p, grid, store_steps=[50, 120])
    assert list(batch) == ["plus", "minus", "cross"]
    for kind, op0 in initial.items():
        alone = integrate_component({kind: op0}, p, grid, store_steps=[50, 120])[kind]
        traj = batch[kind]
        assert list(traj.states) == list(alone.states) == [50, 120]
        for got, want in zip(traj.states.values(), alone.states.values()):
            assert np.max(np.abs(got - want)) <= 1e-14
        assert np.array_equal([tail_weight(s) for s in traj.states.values()],
                              [tail_weight(s) for s in alone.states.values()])
        assert traj.tail_max == alone.tail_max


def test_component_run_returns_the_callers_kind_order():
    # the oracle stacks the kinds in the mapping's order and returns them in
    # it: a cross, plus, minus stack gives the plus, minus, cross run's
    # states and tail records bit for bit, as a slice's place in the stack
    # does not change its values
    n = 12
    p = ModelParams(omega=1.0, coupling=0.15, gamma=0.2, n_trunc=n)
    ordered = _component_initials(n)
    grid = TimeGrid(0.0, 1.0, 200)
    want = integrate_component(ordered, p, grid, store_steps=[0, 50, 200])
    got = integrate_component({kind: ordered[kind] for kind in ("cross", "plus", "minus")},
                              p, grid, store_steps=[0, 50, 200])
    assert list(got) == ["cross", "plus", "minus"]
    for kind, traj in got.items():
        assert list(traj.states) == list(want[kind].states)
        for k, state in traj.states.items():
            assert np.array_equal(state, want[kind].states[k])
        assert traj.tail_max == want[kind].tail_max


def test_component_stack_overflow_names_its_kind():
    # only the minus slice holds population; the drive pushes it into the
    # top levels mid-run while plus and cross stay zero
    n = 8
    p = ModelParams(omega=1.0, coupling=0.5, gamma=0.0, n_trunc=n)
    vacuum = np.zeros((n, n), dtype=complex)
    vacuum[0, 0] = 1.0
    zero = np.zeros((n, n), dtype=complex)
    with pytest.raises(TailOverflow) as info:
        integrate_component({"plus": zero, "minus": vacuum, "cross": zero}, p,
                            TimeGrid(0.0, 4.0, 400))
    message = str(info.value)
    assert message.startswith("minus tail weight")
    assert "plus" not in message and "cross" not in message
    assert "t=0 " not in message + " "


def test_commutator_states_stay_exactly_hermitian():
    # an exactly Hermitian initial state is kept bit for bit, and every kept
    # joint, plus and minus state is exactly Hermitian
    n = 10
    p = ModelParams(omega=1.0, coupling=0.15, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.0, 1.0, 100)
    keep = [0, 37, 100]
    initial = {kind: 0.5 * (op + op.conj().T) if kind != "cross" else op
               for kind, op in _component_initials(n).items()}
    rho0 = coherent_joint(0.5, n, ATOM_UP)
    runs = [(integrate_joint(rho0, p, grid, store_steps=keep), rho0)]
    trajs = integrate_component(initial, p, grid, store_steps=keep)
    runs += [(trajs[kind], initial[kind]) for kind in ("plus", "minus")]
    for traj, y0 in runs:
        assert np.array_equal(traj.states[0], y0)
        for state in traj.states.values():
            assert np.array_equal(state, state.conj().T)


def test_nearly_hermitian_initial_state_runs_as_its_hermitian_part():
    n = 10
    p = ModelParams(omega=1.0, coupling=0.15, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.0, 1.0, 100)
    bump = np.zeros((n, n), dtype=complex)
    bump[0, 1] = 5e-9  # within HERM_TOL
    plus = _component_initials(n)["plus"] + bump
    part = 0.5 * (plus + plus.conj().T)
    got = integrate_component({"plus": plus}, p, grid, store_steps=[0, 100])["plus"]
    want = integrate_component({"plus": part}, p, grid, store_steps=[0, 100])["plus"]
    for k in (0, 100):
        assert np.array_equal(got.states[k], want.states[k])


@pytest.mark.parametrize("kind", ["joint", "plus", "minus"])
def test_non_hermitian_commutator_state_rejected(kind):
    n = 8
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.0, 1.0, 100)
    match = f"initial {kind} state is not Hermitian within {model.HERM_TOL}"
    if kind == "joint":
        rho0 = coherent_joint(0.5, n, ATOM_UP)
        rho0[0, 1] += 2e-8
        with pytest.raises(ValueError, match=match):
            integrate_joint(rho0, p, grid)
    else:
        initial = _component_initials(n)
        initial[kind][0, 1] += 2e-8
        with pytest.raises(ValueError, match=match):
            integrate_component(initial, p, grid)
