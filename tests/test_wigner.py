import json
import math

import numpy as np
import pytest

from jcdamp.fock import ModelParams, coherent_state, displacement
from jcdamp.solution import coherent_center, evolve_plus_minus
from jcdamp.wigner import (
    PhaseGrid,
    gaussian_grid,
    parity_operator,
    wigner_at,
    wigner_grid,
    wigner_operator,
    wigner_operator_series,
)


def coherent_projector(alpha, n):
    v = coherent_state(alpha, n).vec
    return np.outer(v, v.conj())


def gaussian_at(alpha, t, p, sign, alpha0):
    # ``gaussian_grid`` on a degenerate box whose every point is alpha
    x, y = complex(alpha).real, complex(alpha).imag
    return gaussian_grid(t, p, sign, alpha0, x, x, 2, y, y, 2).values[0, 0]


def test_wigner_operator_at_origin_is_parity():
    u0 = wigner_operator(0.0, 20)
    assert np.max(np.abs(u0 - 2.0 * parity_operator(20))) < 1e-12
    assert u0[0, 0].real == pytest.approx(2.0)
    assert u0[1, 1].real == pytest.approx(-2.0)


def test_wigner_operator_equals_dense_parity_product():
    # the parity applied as a column sign flip gives the dense product's bits
    rng = np.random.default_rng(3)
    for n in (14, 40):
        for alpha in rng.uniform(-3.0, 3.0, (20, 2)) @ np.array([1.0, 1j]):
            d = displacement(alpha, n)
            want = 2.0 * d @ parity_operator(n) @ d.conj().T
            assert np.array_equal(wigner_operator(alpha, n), want)


def test_wigner_vacuum_peak():
    rho = coherent_projector(0.0, 20)
    assert wigner_at(rho, 0.0) == pytest.approx(2.0, abs=1e-10)


def test_wigner_single_photon_negative_at_origin():
    n = 20
    rho = np.zeros((n, n), dtype=complex)
    rho[1, 1] = 1.0
    assert wigner_at(rho, 0.0) == pytest.approx(-2.0, abs=1e-10)


def test_wigner_coherent_gaussian_profile():
    n = 40
    beta = 0.8 - 0.3j
    rho = coherent_projector(beta, n)
    for alpha in (0.0, 0.5, beta, 1.0 + 0.4j, -0.6j):
        want = 2.0 * math.exp(-2.0 * abs(alpha - beta) ** 2)
        assert abs(wigner_at(rho, alpha) - want) < 1e-7


def test_wigner_rejects_non_hermitian():
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 1] = 0.5
    with pytest.raises(ValueError):
        wigner_at(rho, 0.0)


def test_wigner_real_and_bounded():
    rng = np.random.default_rng(12)
    n = 25
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    u0 = wigner_operator(0.7 + 0.1j, n)
    val = np.sum(u0 * rho.T)
    assert abs(val.imag) < 1e-10
    for alpha in (0.0, 0.5 - 0.2j, 1.5):
        assert abs(wigner_at(rho, alpha)) <= 2.0 + 1e-9


def test_wigner_displacement_covariance():
    n = 40
    beta = 0.4 + 0.3j
    rho = coherent_projector(0.5, n)
    d = displacement(beta, n)
    shifted = d @ rho @ d.conj().T
    for alpha in (0.2, 0.9j, 0.7 - 0.4j):
        assert abs(wigner_at(shifted, alpha) - wigner_at(rho, alpha - beta)) < 1e-8


def test_series_equals_displaced_parity_small():
    # exact-arithmetic normally ordered series vs displaced parity,
    # on the block where the truncated parity route is converged
    n = 30
    alpha = 0.6 + 0.2j
    ser = wigner_operator_series(alpha, n, block=12)
    dp = wigner_operator(alpha, n)[:12, :12]
    assert np.max(np.abs(ser - dp)) < 1e-9


def test_series_at_origin_is_parity():
    got = wigner_operator_series(0.0, 10, block=10)
    assert np.max(np.abs(got - 2.0 * parity_operator(10))) == 0.0


def test_gaussian_closed_form_matches_operator_route():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=40)
    rho0 = coherent_projector(1.0, 40)
    t = 1.5
    for sign in (1, -1):
        state = evolve_plus_minus(rho0, t, p, sign)
        for alpha in (0.0, 0.5 - 0.5j, 1.0):
            closed = gaussian_at(alpha, t, p, sign, 1.0)
            sampled = wigner_at(state, alpha)
            assert abs(closed - sampled) < 1e-6


def test_gaussian_peak_at_initial_center():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=8)
    for alpha0 in (0.7, -0.3 + 1.1j):
        for sign in (1, -1):
            assert gaussian_at(alpha0, 0.0, p, sign, alpha0) == pytest.approx(2.0)


def test_gaussian_long_time_center_forgets_initial_state():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=8)
    t = 120.0
    for sign in (1, -1):
        limit = -sign * 2j * p.coupling / (2j * p.omega + p.gamma)
        for alpha0 in (1.0, -0.5j):
            # peak value at the predicted limit is the global maximum 2
            assert gaussian_at(limit, t, p, sign, alpha0) == pytest.approx(2.0, abs=1e-8)


def test_grid_vacuum_peak_and_normalization():
    rho = coherent_projector(0.0, 30)
    grid = wigner_grid(rho, -2.0, 2.0, 41, -2.0, 2.0, 41)
    peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.re[peak[0]] == pytest.approx(0.0)
    assert grid.im[peak[1]] == pytest.approx(0.0)
    assert grid.values[peak] == pytest.approx(2.0, abs=1e-9)
    assert grid.normalization() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("reversed_axis", ["re", "im"])
def test_reversed_box_keeps_normalization_positive(reversed_axis):
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=8)
    forward = {"re_min": -2.0, "re_max": 2.0, "n_re": 21, "im_min": -2.0, "im_max": 2.0, "n_im": 21}
    backward = dict(forward, **{f"{reversed_axis}_min": 2.0, f"{reversed_axis}_max": -2.0})
    norm = gaussian_grid(1.2, p, 1, 0.7, **forward).normalization()
    assert norm > 0.9
    assert gaussian_grid(1.2, p, 1, 0.7, **backward).normalization() == pytest.approx(norm, rel=1e-12)


def test_grid_coherent_argmax_near_center():
    beta = 0.6 - 0.4j
    rho = coherent_projector(beta, 30)
    grid = wigner_grid(rho, -2.0, 2.0, 41, -2.0, 2.0, 41)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    spacing = grid.re[1] - grid.re[0]
    assert abs(grid.re[i] - beta.real) <= spacing / 2 + 1e-12
    assert abs(grid.im[j] - beta.imag) <= spacing / 2 + 1e-12


def test_grid_of_a_stack_is_each_state_grid():
    # one pass over a stack gives, for each state, its own single-state grid
    rng = np.random.default_rng(5)
    n = 10
    states = []
    for _ in range(3):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        states.append(m @ m.conj().T / np.trace(m @ m.conj().T))
    box = (-1.5, 1.5, 4, -1.0, 1.0, 3)
    grids = wigner_grid(np.stack(states), *box)
    assert len(grids) == 3
    for state, grid in zip(states, grids):
        single = wigner_grid(state, *box)
        assert isinstance(single, PhaseGrid)
        assert np.array_equal(grid.re, single.re) and np.array_equal(grid.im, single.im)
        assert np.array_equal(grid.values, single.values)
    assert grids[2].values[1, 2] == wigner_at(states[2], grids[2].re[1] + 1j * grids[2].im[2])
    # a non-Hermitian member fails the whole stack
    states[1] = states[1] + np.triu(np.full((n, n), 1e-6), 1)
    with pytest.raises(ValueError):
        wigner_grid(np.stack(states), *box)


def test_grid_rejects_empty():
    rho = coherent_projector(0.0, 10)
    with pytest.raises(ValueError):
        wigner_grid(rho, -1.0, 1.0, 1, -1.0, 1.0, 5)


def test_gaussian_grid_matches_pointwise_form():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=8)
    g = gaussian_grid(1.2, p, 1, 0.7, -1.0, 1.0, 5, -1.0, 1.0, 5)
    center = coherent_center(1.2, p, 1, 0.7)
    for i, x in enumerate(g.re):
        for j, y in enumerate(g.im):
            assert g.values[i, j] == pytest.approx(
                2.0 * math.exp(-2.0 * abs(x + 1j * y - center) ** 2), abs=1e-12)


def test_phase_grid_serialization(tmp_path):
    rho = coherent_projector(0.3, 12)
    grid = wigner_grid(rho, -1.0, 1.0, 5, -1.0, 1.0, 4)
    csv_path = tmp_path / "grid.csv"
    json_path = tmp_path / "grid.json"
    grid.to_csv(csv_path)
    grid.to_json(json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "re,im,w"
    assert len(lines) == 1 + 5 * 4
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[1]) == -1.0
    doc = json.loads(json_path.read_text())
    assert doc["re"] == [float(x) for x in grid.re]
    assert np.allclose(np.array(doc["values"]), grid.values)
    assert doc["normalization"] == pytest.approx(grid.normalization())
