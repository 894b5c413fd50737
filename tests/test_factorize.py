import math

import numpy as np
import pytest
import scipy.linalg

from jcdamp.doubled import vectorize
from jcdamp.factorize import (
    FactorizationProblem,
    PreconditionViolated,
    check_preconditions,
    factorized_propagator,
    time_ordered_propagator,
)
from jcdamp.fock import ModelParams, coherent_state
from jcdamp.oracle import StepTooLarge, TimeGrid
from jcdamp.quadrature import simpson_adaptive
from reference import acomm_partners, interior_indices


def heisenberg_pair(c1=0.8, c2=-1.3):
    """Two stacked 3x3 shift blocks: [A, B] is central and nilpotent."""
    def block(i, j, dim=6):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, j] = 1.0
        return m

    a = c1 * (block(0, 1) + 0.5 * block(3, 4))
    b = c2 * (block(1, 2) - 0.7 * block(4, 5))
    return a, b


def test_heisenberg_commutator_is_central():
    a, b = heisenberg_pair()
    comm = a @ b - b @ a
    assert np.max(np.abs(comm @ a - a @ comm)) == 0.0
    assert np.max(np.abs(comm @ b - b @ comm)) == 0.0


def test_factorized_reduces_to_plain_exponential_without_b():
    a, _ = heisenberg_pair()
    zero = np.zeros_like(a)
    grid = TimeGrid(0.0, 2.0, 10)
    prob = FactorizationProblem(lambda t: a, lambda t: zero,
                                lambda t, tp: 0.0, grid)
    got = factorized_propagator(prob, 2.0)
    assert np.max(np.abs(got - scipy.linalg.expm(2.0 * a))) < 1e-12


def test_bch_constant_pair_matches_direct_exponential():
    # constant A, B with central [A, B]:
    # e^{Bt} e^{At} e^{[A,B] t^2 / 2} == e^{(A+B)t}
    a, b = heisenberg_pair()
    comm = a @ b - b @ a
    t = 1.3
    grid = TimeGrid(0.0, t, 10)
    prob = FactorizationProblem(lambda s: a, lambda s: b,
                                lambda s, sp: comm, grid)
    got = factorized_propagator(prob, t)
    direct = scipy.linalg.expm(t * (a + b))
    assert np.max(np.abs(got - direct)) < 1e-9
    by_hand = (scipy.linalg.expm(t * b) @ scipy.linalg.expm(t * a)
               @ scipy.linalg.expm(0.5 * t * t * comm))
    assert np.max(np.abs(got - by_hand)) < 1e-9


def test_bch_constant_pair_matches_time_ordered():
    a, b = heisenberg_pair()
    comm = a @ b - b @ a
    grid = TimeGrid(0.0, 1.3, 200)
    prob = FactorizationProblem(lambda s: a, lambda s: b,
                                lambda s, sp: comm, grid)
    fact = factorized_propagator(prob, 1.3)
    ordered = time_ordered_propagator(lambda s: a + b, grid)
    assert np.max(np.abs(fact - ordered)) < 1e-7


def test_time_ordered_constant_generator():
    rng = np.random.default_rng(4)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    g *= 0.8 / np.linalg.norm(g, 2)
    got = time_ordered_propagator(lambda t: g, TimeGrid(0.0, 1.5, 400))
    assert np.max(np.abs(got - scipy.linalg.expm(1.5 * g))) < 1e-10


def test_time_ordered_commuting_family():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m *= 0.6 / np.linalg.norm(m, 2)
    shape = lambda t: math.sin(t) + 0.3
    got = time_ordered_propagator(lambda t: shape(t) * m, TimeGrid(0.0, 2.0, 600))
    weight = simpson_adaptive(lambda t: complex(shape(t)), 0.0, 2.0, tol=1e-13)
    # limited by the 2nd-order midpoint quadrature of int g(t) dt
    assert np.max(np.abs(got - scipy.linalg.expm(complex(weight) * m))) < 1e-6


def test_time_ordered_convergence_order():
    rng = np.random.default_rng(3)
    g0 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    g1 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    gen = lambda t: g0 * np.cos(1.3 * t) + g1 * np.sin(0.7 * t)

    def prop(n):
        return time_ordered_propagator(gen, TimeGrid(0.0, 1.0, n))

    ref = prop(64)  # quarter-step reference
    e_h = np.max(np.abs(prop(16) - ref))
    e_h2 = np.max(np.abs(prop(32) - ref))
    assert e_h / e_h2 >= 3.9


def test_time_ordered_step_guard():
    g = 100.0 * np.eye(4, dtype=complex)
    with pytest.raises(StepTooLarge):
        time_ordered_propagator(lambda t: g, TimeGrid(0.0, 1.0, 2))


def test_precondition_violation_detected():
    rng = np.random.default_rng(8)
    m0 = rng.normal(size=(5, 5))
    m1 = rng.normal(size=(5, 5))
    grid = TimeGrid(0.0, 1.0, 10)
    # A(t) family that does not commute with itself
    prob = FactorizationProblem(lambda t: m0 + t * m1, lambda t: np.zeros((5, 5)),
                                lambda t, tp: 0.0, grid)
    with pytest.raises(PreconditionViolated):
        check_preconditions(prob)


def _doubled_problem(ds, params):
    c, g, w = params.coupling, params.gamma, params.omega
    a_partner, ad_partner = acomm_partners(ds)

    def a_of(t):
        return -1j * c * math.cosh(0.5 * g * t) * (
            ds.acomm_a * np.exp(-1j * w * t) + ds.acomm_ad * np.exp(1j * w * t))

    def b_of(t):
        return 1j * c * math.sinh(0.5 * g * t) * (
            a_partner * np.exp(-1j * w * t)
            + ad_partner * np.exp(1j * w * t))

    def kernel(s, sp):
        return (-8.0 * c * c * math.cosh(0.5 * g * s) * math.sinh(0.5 * g * sp)
                * math.cos(w * (s - sp)))

    return a_of, b_of, kernel


def test_doubled_space_problem_passes_preconditions_on_interior(dense_superoperators):
    n = 14
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=n)
    a_of, b_of, kernel = _doubled_problem(dense_superoperators(n), p)
    grid = TimeGrid(0.0, 1.5, 100)
    prob = FactorizationProblem(a_of, b_of, kernel, grid,
                                restrict=interior_indices(n))
    check_preconditions(prob)
    # without the interior restriction the truncation boundary shows
    with pytest.raises(PreconditionViolated):
        check_preconditions(FactorizationProblem(a_of, b_of, kernel, grid))


def test_factorized_matches_time_ordered_on_doubled_problem(dense_superoperators):
    n = 16
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=n)
    a_of, b_of, kernel = _doubled_problem(dense_superoperators(n), p)
    t_end = 1.2
    grid = TimeGrid(0.0, t_end, 1200)
    prob = FactorizationProblem(a_of, b_of, kernel, grid,
                                restrict=interior_indices(n))
    fact = factorized_propagator(prob, t_end, check=False)
    v = coherent_state(0.6, n).vec
    v0 = vectorize(np.outer(v, v.conj()))
    ordered = time_ordered_propagator(lambda t: a_of(t) + b_of(t), grid, v0=v0)
    assert np.max(np.abs(fact @ v0 - ordered)) < 1e-7


def test_factorized_matches_closed_moment_form(dense_superoperators):
    # the quadrature route reproduces the closed-moment product
    # e^F exp(int B) exp(int A) with the moment integrals in closed form
    from jcdamp.solution import drive_integrals, kernel_double_integral
    n = 16
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=n)
    a_of, b_of, kernel = _doubled_problem(dense_superoperators(n), p)
    t_end = 1.5
    grid = TimeGrid(0.0, t_end, 100)
    prob = FactorizationProblem(a_of, b_of, kernel, grid,
                                restrict=interior_indices(n))
    fact = factorized_propagator(prob, t_end, check=False)
    ds = dense_superoperators(n)
    a_partner, ad_partner = acomm_partners(ds)
    mu1, mu2 = drive_integrals(t_end, p)
    big_f = kernel_double_integral(t_end, p)
    int_b = np.conj(mu2) * a_partner - mu2 * ad_partner
    int_a = mu1 * ds.acomm_ad - np.conj(mu1) * ds.acomm_a
    closed = np.exp(big_f) * (scipy.linalg.expm(int_b) @ scipy.linalg.expm(int_a))
    v = coherent_state(0.6, n).vec
    v0 = vectorize(np.outer(v, v.conj()))
    assert np.max(np.abs(fact @ v0 - closed @ v0)) < 1e-7


def test_u_substitution_identity(dense_superoperators):
    # propagating with the transformed generator A(t) + int_0^t f(t, s) ds
    # and multiplying back exp(int B) reproduces the factorized result
    n = 12
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=n)
    a_of, b_of, kernel = _doubled_problem(dense_superoperators(n), p)
    t_end = 1.0
    grid = TimeGrid(0.0, t_end, 1000)
    eye = np.eye(n * n, dtype=complex)

    def transformed(t):
        shift = simpson_adaptive(lambda s: complex(kernel(t, s)), 0.0, t, tol=1e-12) \
            if t > 0 else 0.0
        return a_of(t) + complex(shift) * eye

    v = coherent_state(0.5, n).vec
    v0 = vectorize(np.outer(v, v.conj()))
    u_final = time_ordered_propagator(transformed, grid, v0=v0)
    int_b = simpson_adaptive(b_of, 0.0, t_end, tol=1e-11)
    recombined = scipy.linalg.expm(int_b) @ u_final
    prob = FactorizationProblem(a_of, b_of, kernel, grid,
                                restrict=interior_indices(n))
    fact = factorized_propagator(prob, t_end, check=False)
    assert np.max(np.abs(recombined - fact @ v0)) < 1e-8
