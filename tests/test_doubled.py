import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply as scipy_expm_multiply

from jcdamp import doubled
from jcdamp.doubled import (
    anticommutator_generator_factory,
    commutator_generator_factory,
    devectorize,
    evolve_vectorized,
    stacked,
    superoperators,
    taylor_plan,
    vectorize,
)
from jcdamp.factorize import time_ordered_propagator
from jcdamp.fock import ModelParams, annihilation, coherent_state, number_operator
from jcdamp.model import decoupled_rhs
from jcdamp.oracle import TimeGrid, integrate_component
from reference import (
    acomm_partners,
    damped_frame_drive,
    early_terminated_expm_multiply,
    frame_midpoint_states,
    interior_indices,
    rotating_generator,
)


def dense_damping(gamma, a, m):
    # D[m] = (gamma/2)(2 a m a+ - a+a m - m a+a) from dense products
    ad = a.conj().T
    return 0.5 * gamma * (2.0 * a @ m @ ad - ad @ a @ m - m @ ad @ a)


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def interior_block(mat, idx):
    return mat[np.ix_(idx, idx)]


def test_pairing_vector_entries():
    # the unnormalized pair state sum_n |n, n~> is the vectorized identity
    v = vectorize(np.eye(2))
    assert np.array_equal(v, np.array([1, 0, 0, 1], dtype=complex))


def test_lowering_transfer_identity(dense_superoperators):
    # a acting on the physical mode of the pair state equals raising the
    # fictitious mode: (a x 1) |pair> == (1 x b+) |pair>
    n = 10
    ds = dense_superoperators(n)
    v = vectorize(np.eye(n))
    assert np.max(np.abs(ds.left_a @ v - ds.right_a @ v)) < 1e-14
    assert np.max(np.abs(ds.left_ad @ v - ds.right_ad @ v)) < 1e-14


def test_vectorize_round_trip_and_basis():
    n = 6
    rho = np.zeros((n, n), dtype=complex)
    rho[0, 0] = 1.0
    v = vectorize(rho)
    assert v[0] == 1.0 and np.max(np.abs(v[1:])) == 0.0
    m = random_matrix(n, 1)
    assert np.array_equal(devectorize(vectorize(m)), m)


def test_vectorize_is_hilbert_schmidt_isometry():
    n = 8
    for seed in range(5):
        x = random_matrix(n, seed)
        y = random_matrix(n, seed + 100)
        lhs = np.vdot(vectorize(x), vectorize(y))
        rhs = np.trace(x.conj().T @ y)
        assert abs(lhs - rhs) < 1e-12


def test_left_right_multiplication_superoperators(dense_superoperators):
    n = 7
    ds = dense_superoperators(n)
    a = annihilation(n)
    m = random_matrix(n, 3)
    assert np.max(np.abs(devectorize(ds.left_a @ vectorize(m)) - a @ m)) < 1e-14
    assert np.max(np.abs(devectorize(ds.right_a @ vectorize(m)) - m @ a)) < 1e-14
    assert np.max(np.abs(devectorize(ds.left_ad @ vectorize(m)) - a.conj().T @ m)) < 1e-14
    assert np.max(np.abs(devectorize(ds.right_ad @ vectorize(m)) - m @ a.conj().T)) < 1e-14


def test_dissipator_superoperator_matches_matrix_form(dense_superoperators):
    n = 9
    ds = dense_superoperators(n)
    a = annihilation(n)
    m = random_matrix(n, 5)
    got = devectorize(ds.dissipator @ vectorize(m))
    want = dense_damping(2.0, a, m)  # the superoperator carries no 1/2
    assert np.max(np.abs(got - want)) < 1e-12


def test_commutator_generator_matches_equation_of_motion():
    # against -/+ i c [X, m] + D[m] from dense products, on a non-Hermitian m
    n, t = 12, 0.83
    p = ModelParams(omega=1.1, coupling=0.17, gamma=0.23, n_trunc=n)
    m = random_matrix(n, 7)
    a = annihilation(n)
    x = a.conj().T * np.exp(1j * p.omega * t) + a * np.exp(-1j * p.omega * t)
    for sign in (1, -1):
        gen = rotating_generator(commutator_generator_factory(p, sign)).at(t)
        got = devectorize(gen @ vectorize(m))
        want = -1j * sign * p.coupling * (x @ m - m @ x) + dense_damping(p.gamma, a, m)
        assert np.max(np.abs(got - want)) < 1e-12


def test_anticommutator_generator_matches_equation_of_motion():
    n = 12
    p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=n)
    m = random_matrix(n, 9)
    gen = rotating_generator(anticommutator_generator_factory(p)).at(1.21)
    got = devectorize(gen @ vectorize(m))
    want = decoupled_rhs(["cross"], p)(1.21, m[None])[0]
    assert np.max(np.abs(got - want)) < 1e-12


def test_generators_match_dense_views(dense_superoperators):
    # the sparse generators are the documented sums of the superoperators
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=8)
    t = 0.37
    ds = dense_superoperators(8)
    pref = -1j * p.coupling
    down, up = np.exp(-1j * p.omega * t), np.exp(1j * p.omega * t)
    for sign in (1, -1):
        dense = sign * pref * (ds.comm_a * down + ds.comm_ad * up) + 0.5 * p.gamma * ds.dissipator
        sparse = rotating_generator(commutator_generator_factory(p, sign)).at(t)
        assert np.max(np.abs(sparse.toarray() - dense)) < 1e-14
    dense = pref * (ds.acomm_a * down + ds.acomm_ad * up) + 0.5 * p.gamma * ds.dissipator
    sparse = rotating_generator(anticommutator_generator_factory(p)).at(t)
    assert np.max(np.abs(sparse.toarray() - dense)) < 1e-14


def test_dissipator_ladder_commutators_interior(dense_superoperators):
    # [dissipator, comm_a] = -comm_a and [dissipator, comm_ad] = -comm_ad
    n = 12
    ds = dense_superoperators(n)
    idx = interior_indices(n)
    for op in (ds.comm_a, ds.comm_ad):
        comm = ds.dissipator @ op - op @ ds.dissipator
        assert np.max(np.abs(interior_block(comm + op, idx))) < 1e-12


def test_commutator_ladders_mutually_commute_interior(dense_superoperators):
    n = 12
    ds = dense_superoperators(n)
    idx = interior_indices(n)
    comm = ds.comm_a @ ds.comm_ad - ds.comm_ad @ ds.comm_a
    assert np.max(np.abs(interior_block(comm, idx))) < 1e-12


def test_anticommutator_partner_relations_interior(dense_superoperators):
    n = 12
    ds = dense_superoperators(n)
    idx = interior_indices(n)
    d = ds.dissipator
    a_partner, ad_partner = acomm_partners(ds)
    # [D, acomm_a] = partner, [D, partner] = acomm_a; same for the adjoint pair
    c1 = d @ ds.acomm_a - ds.acomm_a @ d
    assert np.max(np.abs(interior_block(c1 - a_partner, idx))) < 1e-12
    c2 = d @ a_partner - a_partner @ d
    assert np.max(np.abs(interior_block(c2 - ds.acomm_a, idx))) < 1e-12
    c3 = d @ ds.acomm_ad - ds.acomm_ad @ d
    assert np.max(np.abs(interior_block(c3 - ad_partner, idx))) < 1e-12
    c4 = d @ ad_partner - ad_partner @ d
    assert np.max(np.abs(interior_block(c4 - ds.acomm_ad, idx))) < 1e-12


def test_scalar_cross_commutators_interior(dense_superoperators):
    # [acomm_a, partner_ad] = -4 and [acomm_ad, partner_a] = -4
    n = 12
    ds = dense_superoperators(n)
    idx = interior_indices(n)
    eye = np.eye(n * n, dtype=complex)
    a_partner, ad_partner = acomm_partners(ds)
    c1 = ds.acomm_a @ ad_partner - ad_partner @ ds.acomm_a
    assert np.max(np.abs(interior_block(c1 + 4.0 * eye, idx))) < 1e-12
    c2 = ds.acomm_ad @ a_partner - a_partner @ ds.acomm_ad
    assert np.max(np.abs(interior_block(c2 + 4.0 * eye, idx))) < 1e-12


def test_damped_frame_drive_commutes_at_different_times():
    n = 12
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    idx = interior_indices(n)
    for t1, t2 in ((0.0, 0.7), (0.4, 1.9), (1.1, 2.3)):
        g1 = damped_frame_drive(t1, p, 1)
        g2 = damped_frame_drive(t2, p, 1)
        comm = g1 @ g2 - g2 @ g1
        assert np.max(np.abs(interior_block(comm, idx))) < 1e-12


def test_evolve_constant_diagonal_generator_exact():
    rates = np.array([-0.5, -0.1, 0.0, -2.0])
    gen = sp.diags(rates)
    v0 = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    grid = TimeGrid(0.0, 2.0, 50)
    got = evolve_vectorized(gen, v0, grid)[grid.n_steps]
    assert np.max(np.abs(got - v0 * np.exp(2.0 * rates))) < 1e-10


def test_evolve_zero_generator_is_identity():
    gen = sp.csr_matrix((9, 9))
    v0 = np.arange(9.0).astype(complex)
    grid = TimeGrid(0.0, 1.0, 10)
    got = evolve_vectorized(gen, v0, grid)[grid.n_steps]
    assert np.array_equal(got, v0)


def test_evolve_returns_the_lab_frame_vector():
    # with G(0) = 0, L = -i diag(r): the rotating-frame vector stays v0, and
    # the lab-frame vector S(-t) v0 = e^{-i t r} v0 is what a kept step returns
    rotation = np.array([0.0, 1.3, -2.1, 0.4])
    gen = -1j * sp.diags(rotation)
    v0 = np.array([1.0, 2.0 - 1.0j, 0.5j, -3.0], dtype=complex)
    grid = TimeGrid(0.7, 2.7, 40)
    kept = evolve_vectorized(gen, v0, grid, store_steps=[0, 13, 40])
    assert np.array_equal(kept[0], v0)
    for k in (13, 40):
        want = np.exp(-1j * k * grid.step * rotation) * v0
        assert np.max(np.abs(kept[k] - want)) < 1e-13


def test_evolve_matches_oracle_component():
    n = 30
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    v = coherent_state(1.0, n).vec
    rho0 = np.outer(v, v.conj())
    grid = TimeGrid(0.0, 5.0, 1250)
    oracle = integrate_component({"plus": rho0}, p, grid)["plus"].final
    got = devectorize(evolve_vectorized(
        commutator_generator_factory(p, 1), vectorize(rho0), grid)[grid.n_steps])
    k = n - 4
    assert np.max(np.abs(got[:k, :k] - oracle[:k, :k])) < 1e-6


def _generators(p):
    return {"plus": commutator_generator_factory(p, 1),
            "minus": commutator_generator_factory(p, -1),
            "cross": anticommutator_generator_factory(p)}


def test_generator_frame_identity(dense_superoperators):
    # G(t) = S(t) G(0) S(t)^+ with S(t) = diag(e^{i w t (m - n)}), exactly,
    # against G(t) summed from the dense views
    n = 8
    p = ModelParams(omega=1.3, coupling=0.1, gamma=0.2, n_trunc=n)
    ds = dense_superoperators(n)
    levels = np.arange(n)
    diff = (levels[:, None] - levels[None, :]).reshape(-1)
    prefs = {"plus": -1j * p.coupling, "minus": 1j * p.coupling, "cross": -1j * p.coupling}
    for kind, gen in _generators(p).items():
        pieces = "comm" if kind != "cross" else "acomm"
        low, high = getattr(ds, pieces + "_a"), getattr(ds, pieces + "_ad")
        frame = rotating_generator(gen)
        g0 = frame.at(0.0).toarray()
        for t in (0.37, 1.9, -2.4, 11.0):
            dense = (prefs[kind] * (low * np.exp(-1j * p.omega * t) + high * np.exp(1j * p.omega * t))
                     + 0.5 * p.gamma * ds.dissipator)
            s = np.exp(1j * p.omega * t * diff)
            rotated = s[:, None] * g0 * s.conj()[None, :]
            assert np.max(np.abs(rotated - dense)) < 1e-14
            assert np.max(np.abs(frame.at(t).toarray() - dense)) < 1e-14


@pytest.mark.parametrize("t_start", [0.0, 0.7])
def test_evolve_matches_time_ordered_propagator(t_start):
    n = 8
    grid = TimeGrid(t_start, t_start + 0.5, 20)
    rho0 = random_matrix(n, 11)
    for omega in (0.0, 1.3):
        for gamma in (0.0, 0.2):
            for coupling in (0.0, 0.1):
                p = ModelParams(omega=omega, coupling=coupling, gamma=gamma, n_trunc=n)
                for kind, gen in _generators(p).items():
                    # the midpoint product in the rotating frame, zero at t_start,
                    # is the split of L: the lab-frame vector S(-T) v at
                    # T = t_end - t_start
                    frame = rotating_generator(gen)
                    want = frame.phase(-grid.n_steps * grid.step) * time_ordered_propagator(
                        lambda t: frame.at(t - t_start), grid, vectorize(rho0))
                    got = evolve_vectorized(gen, vectorize(rho0), grid)[grid.n_steps]
                    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert rel < 1e-13, (kind, omega, gamma, coupling)


def test_evolve_runs_on_the_frame_clock():
    # a grid shifted in time gives the same run, bit for bit
    n = 8
    p = ModelParams(omega=1.3, coupling=0.1, gamma=0.2, n_trunc=n)
    v0 = vectorize(random_matrix(n, 7))
    shifted, origin = TimeGrid(0.7, 1.2, 20), TimeGrid(0.0, 0.5, 20)
    for gen in _generators(p).values():
        got = evolve_vectorized(gen, v0, shifted, store_steps=[7, 20])
        want = evolve_vectorized(gen, v0, origin, store_steps=[7, 20])
        assert list(got) == list(want) == [7, 20]
        for k in want:
            assert np.array_equal(got[k], want[k])


def test_scaled_taylor_plan_matches_scipy():
    # a step far beyond the oracle's step bound: the plan needs s > 1
    n = 10
    p = ModelParams(omega=1.3, coupling=0.7, gamma=1.5, n_trunc=n)
    gen = anticommutator_generator_factory(p)
    frame = rotating_generator(gen)
    h = 1.0
    plan = taylor_plan(h * frame.g0)
    assert plan.s > 1
    v0 = vectorize(random_matrix(n, 4))
    want = scipy_expm_multiply(h * frame.g0, v0)
    got = doubled.expm_multiply(plan, v0)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    # one midpoint step, returned in the lab frame: S(-h) exp(h G(h/2)) v0
    want = frame.phase(-h) * scipy_expm_multiply(h * frame.at(0.5 * h), v0)
    grid = TimeGrid(0.0, h, 1)
    got = evolve_vectorized(gen, v0, grid)[grid.n_steps]
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


class _CountedProducts:
    """Stand-in for a plan's sparse matrix that counts its products."""

    def __init__(self, mat):
        self.mat, self.products = mat, 0

    def __matmul__(self, v):
        self.products += 1
        return self.mat @ v


@pytest.mark.parametrize("coupling, gamma, h", [(0.1, 0.2, 0.05), (0.7, 1.5, 1.0)])
def test_expm_multiply_runs_the_plans_full_degree(coupling, gamma, h):
    # m_star products per sweep, s sweeps, whatever the vector; the
    # stand-in changes no bit of the result, and the input is not written
    n = 8
    p = ModelParams(omega=1.3, coupling=coupling, gamma=gamma, n_trunc=n)
    for gen in _generators(p).values():
        plan = taylor_plan(h * rotating_generator(gen).g0)
        assert (plan.s > 1) == (h == 1.0)
        counted = _CountedProducts(plan.shifted)
        for v0 in (vectorize(random_matrix(n, 8)), vectorize(np.eye(n)),
                   np.zeros(n * n, dtype=complex)):
            counted.products = 0
            before = v0.copy()
            got = doubled.expm_multiply(dataclasses.replace(plan, shifted=counted), v0)
            assert counted.products == plan.m_star * plan.s
            assert np.array_equal(v0, before)
            assert np.array_equal(got, doubled.expm_multiply(plan, v0))


@pytest.mark.parametrize("coupling, gamma, h", [(0.1, 0.2, 0.004), (0.1, 0.2, 0.05),
                                                (0.7, 1.5, 1.0), (0.7, 1.5, 3.0)])
def test_full_degree_matches_early_terminated_loop(coupling, gamma, h):
    # the terms the early-termination test skipped lie below unit roundoff
    n = 8
    p = ModelParams(omega=1.3, coupling=coupling, gamma=gamma, n_trunc=n)
    v0 = vectorize(random_matrix(n, 9))
    for kind, gen in _generators(p).items():
        plan = taylor_plan(h * rotating_generator(gen).g0)
        want = early_terminated_expm_multiply(plan, v0)
        got = doubled.expm_multiply(plan, v0)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), kind


@pytest.mark.parametrize("size", [1, 5, 17])
def test_evolve_rejects_a_vector_of_the_wrong_shape(size):
    # a length-1 vector would broadcast against the half-step phase
    gen = commutator_generator_factory(ModelParams(omega=1.0, coupling=0.1, gamma=0.2,
                                                   n_trunc=4), 1)
    with pytest.raises(ValueError, match=rf"shape \(16,\).*\(16, 16\).*shape \({size},\)"):
        evolve_vectorized(gen, np.ones(size, dtype=complex), TimeGrid(0.0, 0.1, 2))
    with pytest.raises(ValueError, match=r"shape \(16,\).*shape \(4, 4\)"):
        evolve_vectorized(gen, np.eye(4, dtype=complex), TimeGrid(0.0, 0.1, 2))


def test_evolve_calls_expm_multiply_once_per_step(monkeypatch):
    calls = []
    original = doubled.expm_multiply

    def counted(plan, v):
        calls.append(1)
        return original(plan, v)

    monkeypatch.setattr(doubled, "expm_multiply", counted)
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=6)
    evolve_vectorized(commutator_generator_factory(p, 1), vectorize(np.eye(6)),
                      TimeGrid(0.0, 1.0, 37))
    assert len(calls) == 37
    # no step after the last kept one
    calls.clear()
    kept = evolve_vectorized(commutator_generator_factory(p, 1), vectorize(np.eye(6)),
                             TimeGrid(0.0, 1.0, 37), store_steps=[20, 9])
    assert len(calls) == 20
    assert list(kept) == [9, 20]


def test_evolve_store_steps_match_runs_ending_there():
    # a kept step holds the vector of a run on the same step that ends there
    n = 8
    p = ModelParams(omega=1.3, coupling=0.1, gamma=0.2, n_trunc=n)
    v0 = vectorize(random_matrix(n, 5))
    grid = TimeGrid(0.7, 1.7, 40)
    for gen in _generators(p).values():
        kept = evolve_vectorized(gen, v0, grid, store_steps=[0, 13, 40, 13])
        assert list(kept) == [0, 13, 40]
        assert np.array_equal(kept[0], v0)
        for k in (13, 40):
            alone = evolve_vectorized(gen, v0, TimeGrid(0.7, 0.7 + k * grid.step, k))[k]
            assert np.max(np.abs(kept[k] - alone)) <= 1e-14 * np.max(np.abs(alone))


@pytest.mark.parametrize("omega", [0.0, 1.3])
@pytest.mark.parametrize("gamma", [0.0, 0.2])
def test_stacked_run_matches_separate_runs(omega, gamma):
    # one run under the block-diagonal generator gives each branch's own run
    n = 8
    p = ModelParams(omega=omega, coupling=0.1, gamma=gamma, n_trunc=n)
    grid = TimeGrid(0.7, 1.7, 40)
    gens = _generators(p)
    v0s = [vectorize(random_matrix(n, seed)) for seed in (21, 22, 23)]
    stack = stacked(gens.values())
    assert stack.shape == (3 * n * n, 3 * n * n)
    got = evolve_vectorized(stack, np.concatenate(v0s), grid, store_steps=[13, 40])
    assert list(got) == [13, 40]
    for block, (gen, v0) in enumerate(zip(gens.values(), v0s)):
        want = evolve_vectorized(gen, v0, grid, store_steps=[13, 40])
        for k in (13, 40):
            own = got[k][block * n * n:(block + 1) * n * n]
            assert np.max(np.abs(own - want[k])) < 1e-13 * np.max(np.abs(want[k]))


def test_stacked_blocks_do_not_couple():
    # a branch that starts at zero stays exactly zero, whatever the others do
    n = 8
    size = n * n
    p = ModelParams(omega=1.3, coupling=0.1, gamma=0.2, n_trunc=n)
    stack = stacked(_generators(p).values())
    grid = TimeGrid(0.0, 1.0, 40)
    for block in range(3):
        v0 = np.zeros(3 * size, dtype=complex)
        v0[block * size:(block + 1) * size] = vectorize(random_matrix(n, block))
        got = evolve_vectorized(stack, v0, grid)[grid.n_steps]
        for other in set(range(3)) - {block}:
            assert not np.any(got[other * size:(other + 1) * size])
        assert np.any(got[block * size:(block + 1) * size])


@pytest.mark.parametrize("generator", [
    sp.csr_matrix((4, 5)),
    np.zeros((5, 4), dtype=complex),
    np.zeros(4, dtype=complex),
    np.zeros((4, 4, 1), dtype=complex),
    np.zeros((1, 4), dtype=complex),
], ids=["sparse-4x5", "dense-5x4", "1-d", "3-d", "row"])
def test_evolve_rejects_a_generator_that_is_not_square(generator):
    shape = re.escape(str(np.shape(generator)))
    with pytest.raises(ValueError, match=rf"square matrix; got shape {shape}"):
        evolve_vectorized(generator, np.ones(4, dtype=complex), TimeGrid(0.0, 0.1, 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_evolve_rejects_a_generator_with_non_finite_entries(bad):
    # a NaN would otherwise reach math.ceil in taylor_plan
    gen = sp.diags([-1.0, -2.0, -3.0, -4.0]).astype(complex).tolil()
    gen[1, 2] = bad
    with pytest.raises(ValueError, match=r"shape \(4, 4\) has non-finite entries"):
        evolve_vectorized(gen, np.ones(4, dtype=complex), TimeGrid(0.0, 0.1, 2))


def _lab_lindblad(p, kind):
    # -i w [a+a, .] + the branch drive + D, each side of rho as np.kron on the
    # row-major vector: vec(A rho B) = kron(A, B^T) vec(rho)
    a = annihilation(p.n_trunc)
    eye = np.eye(p.n_trunc)
    x = a + a.conj().T

    def left(op):
        return np.kron(op, eye)

    def right(op):
        return np.kron(eye, op.T)

    num = number_operator(p.n_trunc)
    drive = {"plus": -1j * p.coupling * (left(x) - right(x)),
             "minus": 1j * p.coupling * (left(x) - right(x)),
             "cross": -1j * p.coupling * (left(x) + right(x))}[kind]
    ad = a.conj().T
    damping = 0.5 * p.gamma * (2.0 * left(a) @ right(ad) - left(ad @ a) - right(ad @ a))
    return -1j * p.omega * (left(num) - right(num)) + drive + damping


def test_factories_return_the_lab_frame_lindblad_superoperator():
    n = 8
    p = ModelParams(omega=1.3, coupling=0.17, gamma=0.23, n_trunc=n)
    levels = np.arange(n)
    free = p.omega * (levels[:, None] - levels[None, :]).reshape(-1)
    for kind, lab in _generators(p).items():
        assert np.max(np.abs(lab.toarray() - _lab_lindblad(p, kind))) < 1e-14, kind
        diagonal = lab.diagonal()
        # the split relies on both: D = i Im diag(L) is the free rotation, and
        # A = L - D, coupling and damping, has a real diagonal
        assert np.array_equal(diagonal.imag, -free), kind
        assert not np.any((diagonal + 1j * free).imag), kind


@pytest.mark.parametrize("n", [16, 30, 40])
def test_stacked_run_is_the_rotating_frame_method_bit_for_bit(n):
    # the split of the stacked L runs the rotating-frame midpoint method on
    # (G0, rotation) as built from the superoperator table, bit for bit
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    ops = superoperators(n)
    drives = {"plus": -1j * p.coupling * (ops["comm_a"] + ops["comm_ad"]),
              "minus": 1j * p.coupling * (ops["comm_a"] + ops["comm_ad"]),
              "cross": -1j * p.coupling * (ops["acomm_a"] + ops["acomm_ad"])}
    g0 = sp.block_diag([drive + 0.5 * p.gamma * ops["dissipator"] for drive in drives.values()],
                       format="csr")
    levels = np.arange(n)
    rotation = np.tile(p.omega * (levels[:, None] - levels[None, :]).reshape(-1), 3)
    rng = np.random.default_rng(n)
    v0 = rng.normal(size=3 * n * n) + 1j * rng.normal(size=3 * n * n)
    grid = TimeGrid(0.0, 1.2, 60)
    got = evolve_vectorized(stacked(_generators(p).values()), v0, grid, store_steps=[0, 17, 60])
    want = frame_midpoint_states(g0, rotation, v0, grid, store_steps=[0, 17, 60])
    assert list(got) == list(want) == [0, 17, 60]
    for k in want:
        assert np.array_equal(got[k], want[k]), k
