import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from jcdamp.fock import (
    ModelParams,
    annihilation,
    coherent_state,
    displacement,
    matrix_exponential,
    number_operator,
    tail_weight,
)


def test_annihilation_two_levels():
    a = annihilation(2)
    assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilation_sqrt_entries():
    a = annihilation(3)
    assert a[1, 2] == pytest.approx(math.sqrt(2))
    assert a[0, 1] == pytest.approx(1.0)


def test_annihilation_rejects_small_dim():
    with pytest.raises(ValueError):
        annihilation(1)


def test_commutator_truncation_defect():
    # [a, a+] = 1 except the bottom-right entry, which is 1 - N
    n = 16
    a = annihilation(n)
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(n, dtype=complex)
    expected[-1, -1] = -(n - 1)
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_number_operator_diagonal():
    n_op = number_operator(9)
    assert np.array_equal(n_op, np.diag(np.arange(9.0)).astype(complex))
    a = annihilation(9)
    assert np.max(np.abs(a.conj().T @ a - n_op)) < 1e-12


def test_displacement_zero_is_identity():
    assert np.max(np.abs(displacement(0.0, 20) - np.eye(20))) < 1e-14


@pytest.mark.parametrize("n", [2, 10, 40, 64])
def test_displacement_matches_dense_expm(n):
    a = annihilation(n)
    for r in (0.4, 1.3, 3.0):
        for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            alpha = r * np.exp(1j * theta)
            ref = scipy.linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
            assert np.max(np.abs(displacement(alpha, n) - ref)) < 1e-12


@pytest.mark.parametrize("n", [14, 16, 28, 30, 40, 64])
def test_displacement_adjoint_of_negated_amplitude(n):
    # D(-b)+ = D(b) holds in the truncated eigh form too, because parity
    # anticommutes with the truncated a; evolve_cross relies on it
    for r in (0.05, 0.4, 1.3, 3.0):
        for theta in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            beta = r * np.exp(1j * theta)
            dev = displacement(-beta, n).conj().T - displacement(beta, n)
            assert np.max(np.abs(dev)) < 1e-13


def test_displacement_vacuum_gives_coherent_state():
    d = displacement(0.5, 40)
    target = coherent_state(0.5, 40).vec
    assert np.max(np.abs(d[:, 0] - target)) < 1e-10


def test_displacement_unitary_on_interior():
    # exactly unitary up to expm roundoff (skew-Hermitian generator)
    for alpha in (0.5, 2.0, 1.2 - 0.9j):
        d = displacement(alpha, 40)
        dev = d.conj().T @ d - np.eye(40)
        assert np.max(np.abs(dev[:36, :36])) < 1e-8


@pytest.mark.parametrize("al, be", [(0.5, 0.3j), (1.0, -0.4 + 0.6j), (0.7j, 0.9)])
def test_displacement_composition_law(al, be):
    # D(a) D(b) = exp((a b* - a* b)/2) D(a+b); checked away from the
    # truncation boundary and on bounded-support probe states
    n = 40
    lhs = displacement(al, n) @ displacement(be, n)
    phase = np.exp(0.5 * (al * np.conj(be) - np.conj(al) * be))
    rhs = phase * displacement(al + be, n)
    assert np.max(np.abs(lhs[:18, :18] - rhs[:18, :18])) < 1e-9
    for probe in (coherent_state(0.8, n).vec, coherent_state(-0.5j, n).vec):
        assert np.max(np.abs(lhs @ probe - rhs @ probe)) < 1e-9


def test_coherent_vacuum():
    cs = coherent_state(0.0, 8)
    assert cs.vec[0] == pytest.approx(1.0)
    assert np.max(np.abs(cs.vec[1:])) == 0.0
    assert cs.tail_weight == 0.0 and not cs.clipped


def test_coherent_amplitude_expectation():
    cs = coherent_state(1.0, 30)
    a = annihilation(30)
    mean_a = cs.vec.conj() @ a @ cs.vec
    assert abs(mean_a - 1.0) < 1e-10


def test_coherent_eigenvalue_property():
    cs = coherent_state(0.9 + 0.4j, 30)
    a = annihilation(30)
    resid = a @ cs.vec - (0.9 + 0.4j) * cs.vec
    # top truncation level excluded
    assert np.max(np.abs(resid[:-1])) < 1e-9


def test_coherent_normalization_and_tail_flag():
    cs = coherent_state(1.5, 40)
    assert abs(np.linalg.norm(cs.vec) - 1.0) < 1e-12
    clipped = coherent_state(3.0, 12)
    assert clipped.clipped and clipped.tail_weight > 1e-10
    assert abs(np.linalg.norm(clipped.vec) - 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [30.0, 1e150, 1e200, -30j])
def test_coherent_state_with_no_weight_below_n_trunc_raises(alpha):
    # the kept weight underflows, the amplitudes overflow, or |alpha|^2 does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            coherent_state(alpha, 12)
    # just inside the boundary (about 27.64 at N=12) the state is still a unit vector
    assert abs(np.linalg.norm(coherent_state(27.0, 12).vec) - 1.0) < 1e-12


def test_coherent_state_past_the_unscaled_overflow():
    # alpha^n / sqrt(n!) passes the float range near n = 1444 at |alpha| = 38;
    # the scaled recurrence keeps the state, all of it below n_trunc
    for alpha in (38.0, 38j, 26.9 - 26.9j):
        cs = coherent_state(alpha, 2000)
        assert abs(np.linalg.norm(cs.vec) - 1.0) < 1e-12
        assert cs.tail_weight < 1e-12 and not cs.clipped
        n = np.arange(2000)
        assert abs(np.sum(n * np.abs(cs.vec) ** 2) - abs(alpha) ** 2) < 1e-9 * abs(alpha) ** 2


def _unscaled_coherent_amplitudes(alpha, n_trunc):
    # the recurrence without scaling, as it was before scaling was added
    amps = np.empty(n_trunc, dtype=complex)
    amps[0] = 1.0
    for n in range(1, n_trunc):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    return amps / math.sqrt(float(np.sum(np.abs(amps) ** 2)))


@pytest.mark.parametrize("alpha, n_trunc", [
    (1.0, 40), (1.0, 30), (1.0, 28), (1.0, 16), (2.5 + 1j, 64), (2.5 + 1j, 40),
    (0.9998476951563913 + 0.01745240643728351j, 40), (0.5, 12), (0.8, 16),
    (27.0, 12), (27.7, 2000)])
def test_coherent_state_in_range_is_unscaled(alpha, n_trunc):
    # the README, benchmark and CI amplitudes, and the largest ones that never
    # overflow, come out bit for bit as from the unscaled recurrence
    assert np.array_equal(coherent_state(alpha, n_trunc).vec,
                          _unscaled_coherent_amplitudes(complex(alpha), n_trunc))


def test_matrix_exponential_zero():
    z = np.zeros((6, 6), dtype=complex)
    assert np.max(np.abs(matrix_exponential(z) - np.eye(6))) < 1e-14


def test_matrix_exponential_diagonal_phases():
    n_op = number_operator(10)
    theta = 0.37
    got = matrix_exponential(n_op, 1j * theta)
    expected = np.diag(np.exp(1j * theta * np.arange(10)))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_matrix_exponential_inverse():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m *= 2.0 / np.linalg.norm(m, 2)
    prod = matrix_exponential(m) @ matrix_exponential(m, -1.0)
    assert np.max(np.abs(prod - np.eye(8))) < 1e-10


def test_matrix_exponential_rejects_nonfinite():
    bad = np.array([[0.0, np.inf], [0.0, 0.0]])
    with pytest.raises(ValueError):
        matrix_exponential(bad)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, coupling=0.1, gamma=-0.1, n_trunc=10)
    with pytest.raises(ValueError):
        ModelParams(omega=1.0, coupling=0.1, gamma=0.1, n_trunc=1)
    with pytest.raises(ValueError):
        ModelParams(omega=float("nan"), coupling=0.1, gamma=0.1, n_trunc=10)


def test_model_params_requires_an_integer_truncation():
    # as TimeGrid's n_steps: a float equal to an integer would pass the oracle
    # and the doubled route, then fail in coherent_state with a bare TypeError
    for bad in (12.0, np.float64(12.0), True):
        with pytest.raises(ValueError, match="n_trunc must be an integer"):
            ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=bad)
    for n_trunc in (np.int64(12), np.int32(12)):
        assert ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n_trunc).n_trunc == 12


def test_tail_weight_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(3, 9, 9)) + 1j * rng.normal(size=(3, 9, 9))
    per_matrix = [tail_weight(m) for m in stack]
    assert all(isinstance(w, float) for w in per_matrix)
    assert np.array_equal(tail_weight(stack), per_matrix)
    assert tail_weight(stack[0]) == float(np.sum(np.diagonal(stack[0]).real[-4:]))
