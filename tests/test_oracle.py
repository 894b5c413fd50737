import numpy as np
import pytest

from jcdamp import model, oracle
from jcdamp.doubled import commutator_generator_factory, evolve_vectorized, vectorize
from jcdamp.fock import ModelParams, coherent_state, tail_weight
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
from reference import dense_decoupled_rhs, dense_rotating_frame_rhs, lab_rk4_states, rk4_states


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
    assert np.allclose(g.times(), np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("bad", [2.5, 20.5, 20.0, True, np.float64(8.0), "8"])
def test_time_grid_rejects_a_non_integer_step_count(bad):
    # 2.5 steps would run times() past t_end, and 20.5 would reach range()
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TimeGrid(0.0, 1.0, bad)


def test_time_grid_takes_numpy_integers():
    g = TimeGrid(0.0, 1.0, np.int64(8))
    assert np.array_equal(g.times(), TimeGrid(0.0, 1.0, 8).times())
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


def test_coupling_built_three_times_per_run(monkeypatch):
    # the oracle steps the lab-frame state with the rotating-frame step at
    # frame time 0, so a run writes the coupling's bands three times, at frame
    # times 0, h/2 and h (RK4 stages 2 and 3 share one), however many steps
    builds = []
    real = model._write_bands

    def counted(bands, front, band_pair, omega, t):
        builds.append(t)
        real(bands, front, band_pair, omega, t)

    monkeypatch.setattr(model, "_write_bands", counted)
    n = 10
    p = ModelParams(omega=1.3, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_joint(0.5, n, ATOM_UP)
    cs = split_components(rho0)
    for steps in (50, 400):
        grid = TimeGrid(0.4, 1.4, steps)
        times = [0.0, 0.5 * grid.step, grid.step]
        builds.clear()
        integrate_joint(rho0, p, grid)
        assert builds == times
        builds.clear()
        integrate_component({"plus": cs.plus, "minus": cs.minus, "cross": cs.cross}, p, grid)
        assert builds == times


def test_in_place_stages_match_the_allocating_rk4_loop():
    # the stages bound once to the loop's own arrays and summed left to right
    # give the states of the loop that makes every stage anew, bit for bit:
    # both take the lab-frame step z <- P(h) Phi_0(z)
    n, steps = 14, 30
    p = ModelParams(omega=1.1, coupling=0.2, gamma=0.3, n_trunc=n)
    cs = split_components(coherent_joint(0.6 + 0.2j, n, ATOM_UP))
    initial = {"plus": 0.5 * (cs.plus + cs.plus.conj().T), "cross": cs.cross,
               "minus": 0.5 * (cs.minus + cs.minus.conj().T)}  # as the oracle integrates them
    grid = TimeGrid(0.3, 0.9, steps)
    trajs = integrate_component(initial, p, grid, store_steps=range(steps + 1))
    want = lab_rk4_states(model.decoupled_rhs(list(initial), p),
                          np.stack(list(initial.values())), grid.step, steps,
                          model._lab_phases(grid.step, p, 1))
    for i, kind in enumerate(initial):
        assert all(np.array_equal(trajs[kind].states[k], want[k][i]) for k in range(steps + 1))


def test_joint_run_builds_the_coupling_as_its_field_block(monkeypatch):
    # the joint coupling c sigma_x (x) X(t) is only ever written into an
    # N x N buffer, the block c X(t), so no (2N) x (2N) product with the
    # coupling is made
    shapes = []
    real = model._write_bands

    def recorded(bands, front, band_pair, omega, t):
        shapes.extend(view.base.shape for view in bands)
        real(bands, front, band_pair, omega, t)

    monkeypatch.setattr(model, "_write_bands", recorded)
    n = 10
    p = ModelParams(omega=1.3, coupling=0.1, gamma=0.2, n_trunc=n)
    integrate_joint(coherent_joint(0.5, n, ATOM_UP), p, TimeGrid(0.0, 1.0, 20))
    assert shapes and set(shapes) == {(n, n)}


def test_band_written_coupling_matches_the_dense_build_bit_for_bit():
    # the coupling written as its two bands into one buffer gives the bits of
    # the dense build front (a+ e^{iwt} + a e^{-iwt}) with its diagonal
    # patched, at a new time, a repeated one and t = 0; and so whole runs
    # equal the lab-frame RK4 step on the dense build
    n, steps = 10, 50
    p = ModelParams(omega=1.3, coupling=0.23, gamma=0.31, n_trunc=n)
    rng = np.random.default_rng(59)

    def hermitian(dim):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return 0.5 * (m + m.conj().T)

    cases = [(model.rotating_frame_rhs(p), dense_rotating_frame_rhs(p), [hermitian(2 * n)])]
    for kinds in (["plus", "cross", "minus", "cross"], ["cross"]):
        stack = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) if kind == "cross"
                 else hermitian(n) for kind in kinds]
        cases.append((model.decoupled_rhs(kinds, p), dense_decoupled_rhs(kinds, p), stack))
    for fast, dense, stack in cases:
        y = np.stack(stack)
        for t in (0.0, 0.3, 0.3, 4.1):
            assert np.array_equal(fast(t, y, np.empty_like(y)), dense(t, y, np.empty_like(y)))

    grid = TimeGrid(0.2, 1.2, steps)
    rho0 = coherent_joint(0.35 + 0.1j, n, (ATOM_UP + ATOM_DOWN) / np.sqrt(2.0))
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    got = integrate_joint(rho0, p, grid, store_steps=range(steps + 1))
    want = lab_rk4_states(dense_rotating_frame_rhs(p), rho0[None], grid.step, steps,
                          model._lab_phases(grid.step, p, 2))
    assert all(np.array_equal(got.states[k], want[k][0]) for k in range(steps + 1))
    cs = split_components(rho0)
    initial = {"plus": 0.5 * (cs.plus + cs.plus.conj().T), "cross": cs.cross,
               "minus": 0.5 * (cs.minus + cs.minus.conj().T)}
    trajs = integrate_component(initial, p, grid, store_steps=range(steps + 1))
    want = lab_rk4_states(dense_decoupled_rhs(list(initial), p),
                          np.stack(list(initial.values())), grid.step, steps,
                          model._lab_phases(grid.step, p, 1))
    for i, kind in enumerate(initial):
        assert all(np.array_equal(trajs[kind].states[k], want[k][i]) for k in range(steps + 1))


def test_lab_frame_step_is_the_rotating_frame_method():
    # z <- P(h) Phi_0(z) is the rotating-frame RK4 step at every frame time,
    # taken to the lab frame (model's frame identity): a joint run and a
    # plus/cross/minus stack both equal the earlier method, rotating-frame
    # states times their step's lab phases, to rounding (at most 6e-15 of
    # the stack's largest entry here, and 5.4e-15 at N = 28 over 1,000 steps)
    n, steps = 12, 400
    p = ModelParams(omega=1.3, coupling=0.15, gamma=0.2, n_trunc=n)
    grid = TimeGrid(0.4, 1.4, steps)
    rho0 = _entangled_joint(n)
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    initial = {kind: 0.5 * (op + op.conj().T) if kind != "cross" else op
               for kind, op in _component_initials(n).items()}
    runs = [({"joint": integrate_joint(rho0, p, grid, store_steps=range(steps + 1))},
             model.rotating_frame_rhs(p), rho0[None], 2),
            (integrate_component(initial, p, grid, store_steps=range(steps + 1)),
             model.decoupled_rhs(list(initial), p), np.stack(list(initial.values())), 1)]
    for trajs, rhs, y0, blocks in runs:
        rotating = rk4_states(rhs, y0, grid.step, steps)
        for k in range(steps + 1):
            # the whole stack at step k, relative to its largest entry
            want = np.multiply(rotating[k], model._lab_phases(k * grid.step, p, blocks))
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
    states = lab_rk4_states(model.decoupled_rhs(["plus", "minus"], p),
                            np.stack([vacuum, excited]), grid.step, steps,
                            model._lab_phases(grid.step, p, 1))
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
