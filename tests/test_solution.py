import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from jcdamp import solution
from jcdamp.doubled import vectorize, devectorize
from jcdamp.fock import ModelParams, coherent_state, displacement
from jcdamp.oracle import TimeGrid, integrate_component
from jcdamp.quadrature import simpson_adaptive, simpson_fixed, triangle_double_integral
from jcdamp.solution import (
    ClosedFormOverflow,
    _growth_integral,
    _loss_and_damping,
    _loss_kraus_sum,
    coherent_center,
    damping_weight,
    displacement_amplitude,
    drive_integrals,
    evolve_cross,
    evolve_plus_minus,
    kernel_double_integral,
)
from reference import (
    acomm_partners,
    dense_loss_kraus_sum,
    drive_commutator_kernel,
    interior_indices,
)

STD = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=40)


def coherent_projector(alpha, n):
    v = coherent_state(alpha, n).vec
    return np.outer(v, v.conj())


# ---------------------------------------------------------------- amplitudes

def test_displacement_amplitude_zero_at_t0():
    assert displacement_amplitude(0.0, STD, 1) == 0.0
    assert displacement_amplitude(0.0, STD, -1) == 0.0


def test_displacement_amplitude_initial_slope():
    h = 1e-6
    for sign in (1, -1):
        slope = displacement_amplitude(h, STD, sign) / h
        assert abs(slope - (-1j * sign * STD.coupling)) < 1e-6 * STD.coupling


def test_displacement_amplitude_matches_quadrature():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=8)
    t = 3.0
    for sign in (1, -1):
        integrand = lambda s: np.exp(1j * p.omega * s + 0.5 * p.gamma * s)
        quad = -1j * sign * p.coupling * simpson_adaptive(integrand, 0.0, t, tol=1e-12)
        assert abs(displacement_amplitude(t, p, sign) - complex(quad)) < 1e-10


def test_displacement_amplitude_degenerate_limit():
    p = ModelParams(omega=0.0, coupling=0.3, gamma=0.0, n_trunc=8)
    assert abs(displacement_amplitude(2.0, p, 1) - (-1j * 0.3 * 2.0)) < 1e-12


def test_damping_weight_values():
    assert damping_weight(0.0, 0.5) == 0.0
    assert damping_weight(1.0, 1e3) == pytest.approx(1.0)
    assert damping_weight(0.7 / 0.2, 0.2) == pytest.approx(-math.expm1(-0.7))
    with pytest.raises(ValueError):
        damping_weight(-1.0, 0.5)


def test_damping_weight_forced_by_trace_preservation():
    # with weight 1 - e^{-g t} the loss channel preserves the trace of a
    # coherent state; a plausible wrong weight (g t) does not
    n = 40
    gamma, t = 0.2, 3.5  # g t = 0.7
    rho = coherent_projector(1.0, n)
    decay = np.exp(-0.5 * gamma * t * np.arange(n))

    def channel_trace(weight):
        total = _loss_kraus_sum(rho, weight)
        out = total * np.outer(decay, decay)
        return np.trace(out).real

    assert abs(channel_trace(damping_weight(t, gamma)) - 1.0) < 1e-10
    assert abs(channel_trace(gamma * t) - 1.0) > 1e-3


@pytest.mark.parametrize("n", [2, 3, 28, 40, 64])
def test_kraus_sum_shift_is_the_dense_product_bit_for_bit(monkeypatch, n):
    # a X a+ as an index shift gives the bits of a @ X @ a+, on random complex
    # matrices and on the non-Hermitian seed evolve_cross hands the sum
    rng = np.random.default_rng(67 + n)
    mats = [(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), w) for w in (0.05, 0.9)]
    seeds = []

    def spy(mat, weight):
        seeds.append((mat, weight))
        return _loss_kraus_sum(mat, weight)

    monkeypatch.setattr(solution, "_loss_kraus_sum", spy)
    p = ModelParams(omega=1.0, coupling=0.3, gamma=0.2, n_trunc=n)
    evolve_cross(coherent_projector(0.4 + 0.2j, n), 1.3, p)
    (seed, weight), = seeds
    assert np.max(np.abs(seed - seed.conj().T)) > 1e-3
    for mat, w in mats + [(seed, weight)]:
        assert np.array_equal(_loss_kraus_sum(mat, w), dense_loss_kraus_sum(mat, w))


# ------------------------------------------------------------ orbit center

def test_coherent_center_at_t0():
    assert coherent_center(0.0, STD, 1, 0.7 + 0.2j) == pytest.approx(0.7 + 0.2j)


def test_coherent_center_long_time_limit():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=8)
    limit = {1: -2j * p.coupling / (2j * p.omega + p.gamma),
             -1: 2j * p.coupling / (2j * p.omega + p.gamma)}
    for sign in (1, -1):
        far = coherent_center(200.0, p, sign, 1.3 - 0.4j)
        assert abs(far - limit[sign]) < 1e-8


def test_coherent_center_closed_form_identity():
    # the direct form (limit + decaying memory of alpha0) equals
    # e^{-(i w + g/2) t} (alpha0 + displacement_amplitude)
    rng = np.random.default_rng(2)
    for _ in range(10):
        w, c, g = rng.uniform(0.2, 2.0, size=3)
        p = ModelParams(omega=w, coupling=c, gamma=g, n_trunc=8)
        t = rng.uniform(0.0, 4.0)
        alpha0 = complex(*rng.normal(size=2))
        for sign in (1, -1):
            lead = -sign * 2j * c / (2j * w + g)
            printed = lead + np.exp(-(1j * w + 0.5 * g) * t) * (alpha0 - lead)
            assert abs(coherent_center(t, p, sign, alpha0) - printed) < 1e-12


# -------------------------------------------------------------- pm solution

def test_plus_minus_free_evolution():
    p = ModelParams(omega=0.9, coupling=0.0, gamma=0.0, n_trunc=16)
    rng = np.random.default_rng(5)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    rho0 = m @ m.conj().T
    rho0 /= np.trace(rho0)
    got = evolve_plus_minus(rho0, 1.7, p, 1)
    phases = np.exp(-1j * 0.9 * 1.7 * np.arange(16))
    want = rho0 * np.outer(phases, phases.conj())
    assert np.max(np.abs(got - want)) < 1e-12


def test_plus_minus_keeps_coherent_states_coherent():
    for sign in (1, -1):
        for t in (0.8, 2.5, 5.0):
            state = evolve_plus_minus(coherent_projector(1.0, 40), t, STD, sign)
            center = coherent_center(t, STD, sign, 1.0)
            target = coherent_state(center, 40).vec
            fidelity = np.real(target.conj() @ state @ target)
            assert fidelity >= 1.0 - 1e-8
            assert abs(np.trace(state).real - 1.0) < 1e-9


def test_plus_minus_matches_oracle():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=40)
    rho0 = coherent_projector(1.0, 40)
    grid = TimeGrid(0.0, 5.0, 1250)
    trajs = integrate_component({"plus": rho0, "minus": rho0}, p, grid,
                                store_steps=grid.stored_steps(250))
    for sign, kind in ((1, "plus"), (-1, "minus")):
        traj = trajs[kind]
        for t in (1.0, 3.0, 5.0):
            lab = traj.states[grid.step_index(t)]
            got = evolve_plus_minus(rho0, t, p, sign)
            assert np.max(np.abs(got - lab)) < 1e-6


def test_plus_minus_displaces_after_the_channel():
    # where the displaced initial state fits the truncation, displacing by
    # lambda before the loss channel equals displacing by the damped
    # amplitude after it
    for n, p in ((40, STD), (60, ModelParams(omega=0.7, coupling=0.3, gamma=0.5, n_trunc=60))):
        rho0 = coherent_projector(1.0 - 0.5j, n)
        for sign in (1, -1):
            for t in (0.5, 2.0, 4.0):
                d = displacement(displacement_amplitude(t, p, sign), n)
                before = _loss_and_damping(d @ rho0 @ d.conj().T, t, p)
                assert np.max(np.abs(evolve_plus_minus(rho0, t, p, sign) - before)) < 1e-13


def test_plus_minus_matches_oracle_at_long_gamma_t():
    # lambda grows like e^{g t / 2} (|lambda| ~ 20 at g t = 12 here), far
    # beyond N = 8 levels; the state itself stays near the vacuum
    p = ModelParams(omega=1.0, coupling=0.1, gamma=2.0, n_trunc=8)
    rho0 = coherent_projector(0.05, 8)
    grid = TimeGrid(0.0, 6.0, 960)
    trajs = integrate_component({"plus": rho0, "minus": rho0}, p, grid)
    for sign, kind in ((1, "plus"), (-1, "minus")):
        lab = trajs[kind].final
        assert np.max(np.abs(evolve_plus_minus(rho0, 6.0, p, sign) - lab)) < 1e-9


def test_plus_minus_hermiticity_and_trace():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    rho0 = m @ m.conj().T
    rho0 /= np.trace(rho0)
    # keep boundary population negligible for the truncation-tail claim
    damp = np.exp(-0.8 * np.arange(30))
    rho0 = rho0 * np.outer(damp, damp)
    rho0 /= np.trace(rho0)
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=30)
    state = evolve_plus_minus(rho0, 2.0, p, -1)
    assert np.max(np.abs(state - state.conj().T)) < 1e-10
    assert abs(np.trace(state).real - 1.0) < 1e-9


def test_plus_minus_semigroup_when_uncoupled():
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.4, n_trunc=24)
    rho0 = coherent_projector(0.8, 24)
    one_shot = evolve_plus_minus(rho0, 3.0, p, 1)
    two_step = evolve_plus_minus(evolve_plus_minus(rho0, 1.2, p, 1), 1.8, p, 1)
    assert np.max(np.abs(one_shot - two_step)) < 1e-9




# ---------------------------------------------------------- damping-frame
# factorization identities in the doubled space

def test_drive_displacement_factorizes_in_doubled_space(dense_superoperators):
    # exp(lam comm_ad - lam* comm_a) vec(r) == vec(D(lam) r D+(lam))
    n = 20
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    ds = dense_superoperators(n)
    lam = displacement_amplitude(2.0, p, 1)
    rho = coherent_projector(0.7, n)
    gen = lam * ds.comm_ad - np.conj(lam) * ds.comm_a
    got = devectorize(scipy.linalg.expm(gen) @ vectorize(rho))
    d = displacement(lam, n)
    want = d @ rho @ d.conj().T
    k = n - 4
    assert np.max(np.abs(got[:k, :k] - want[:k, :k])) < 1e-8


def test_damped_frame_drive_integral_is_displacement_generator(dense_superoperators):
    # int_0^t of the damping-frame drive equals
    # lam(t) comm_ad - lam(t)* comm_a  (matrix-valued quadrature)
    from reference import damped_frame_drive
    n = 10
    p = ModelParams(omega=1.0, coupling=0.15, gamma=0.3, n_trunc=n)
    t = 1.7
    quad = simpson_adaptive(lambda s: damped_frame_drive(s, p, 1), 0.0, t, tol=1e-11)
    ds = dense_superoperators(n)
    lam = displacement_amplitude(t, p, 1)
    want = lam * ds.comm_ad - np.conj(lam) * ds.comm_a
    assert np.max(np.abs(quad - want)) < 1e-9


# ------------------------------------------------------------- cross branch

def test_drive_integrals_zero_at_t0():
    assert drive_integrals(0.0, STD) == (0.0, 0.0)


def test_drive_integrals_undamped_closed_form():
    p = ModelParams(omega=1.3, coupling=0.2, gamma=0.0, n_trunc=8)
    t = 2.1
    mu_cosh, mu_sinh = drive_integrals(t, p)
    want = -p.coupling * (np.exp(1j * p.omega * t) - 1.0) / p.omega
    assert abs(mu_cosh - want) < 1e-12
    assert mu_sinh == 0.0


def test_drive_integrals_match_quadrature():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=8)
    t = 2.0
    mu_cosh, mu_sinh = drive_integrals(t, p)
    qc = simpson_adaptive(
        lambda s: np.cosh(0.5 * p.gamma * s) * np.exp(1j * p.omega * s), 0.0, t,
        tol=1e-12)
    qs = simpson_adaptive(
        lambda s: np.sinh(0.5 * p.gamma * s) * np.exp(1j * p.omega * s), 0.0, t,
        tol=1e-12)
    assert abs(mu_cosh - (-1j * p.coupling) * complex(qc)) < 1e-10
    assert abs(mu_sinh - (-1j * p.coupling) * complex(qs)) < 1e-10


def test_kernel_vanishes_at_degenerate_arguments():
    assert drive_commutator_kernel(1.3, 0.0, STD) == 0.0
    p0 = ModelParams(omega=1.0, coupling=0.0, gamma=0.2, n_trunc=8)
    assert drive_commutator_kernel(1.3, 0.7, p0) == 0.0


def test_kernel_matches_doubled_space_commutator(dense_superoperators):
    # [A(s), B(s')] evaluated as matrices is the kernel times identity
    # on the interior block
    n = 16
    p = ModelParams(omega=1.0, coupling=0.12, gamma=0.3, n_trunc=n)
    ds = dense_superoperators(n)
    a_partner, ad_partner = acomm_partners(ds)

    def a_of(s):
        return -1j * p.coupling * math.cosh(0.5 * p.gamma * s) * (
            ds.acomm_a * np.exp(-1j * p.omega * s)
            + ds.acomm_ad * np.exp(1j * p.omega * s))

    def b_of(s):
        return 1j * p.coupling * math.sinh(0.5 * p.gamma * s) * (
            a_partner * np.exp(-1j * p.omega * s)
            + ad_partner * np.exp(1j * p.omega * s))

    idx = interior_indices(n)
    for s, sp_ in ((1.2, 0.5), (0.8, 0.8), (2.0, 1.5)):
        comm = a_of(s) @ b_of(sp_) - b_of(sp_) @ a_of(s)
        sub = comm[np.ix_(idx, idx)]
        f = drive_commutator_kernel(s, sp_, p)
        assert np.max(np.abs(sub - f * np.eye(len(idx)))) < 1e-9


def test_kernel_double_integral_basics():
    assert kernel_double_integral(0.0, STD) == 0.0
    p = ModelParams(omega=0.0, coupling=0.1, gamma=0.4, n_trunc=8)
    vals = [kernel_double_integral(t, p) for t in (0.5, 1.0, 2.0, 3.0)]
    assert all(v <= 0 for v in vals)
    assert all(b <= a for a, b in zip(vals, vals[1:]))  # nonincreasing


def test_kernel_double_integral_quadrature_stability():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=8)
    t = 2.0
    f2 = lambda s, sp: drive_commutator_kernel(s, sp, p)
    coarse = simpson_fixed(lambda s: simpson_fixed(lambda sp: f2(s, sp), 0.0, s, 64)
                           if s > 0 else 0.0, 0.0, t, 64)
    fine = simpson_fixed(lambda s: simpson_fixed(lambda sp: f2(s, sp), 0.0, s, 128)
                         if s > 0 else 0.0, 0.0, t, 128)
    assert abs(coarse - fine) < 1e-9
    assert abs(kernel_double_integral(t, p) - complex(fine).real) < 1e-9


# 30-digit reference values (t, omega, coupling, gamma, F) from an
# arbitrary-precision nested quadrature; the last is the degenerate
# omega = 0, g t -> 0 corner, where F ~ -4 c^2 g t^3 / 6
KERNEL_REFERENCE = [
    (0.3, 1.0, 0.1, 0.2, -3.5849632364013356e-5, 1e-12),
    (10.0, 1.0, 0.1, 0.2, -0.11877971773128209, 1e-12),
    (50.0, 1.0, 0.1, 0.2, -218.37838231759549, 1e-12),
    (0.3, 2.0, 0.1, 0.05, -8.839555399643929e-6, 1e-12),
    (2.0, 0.0, 0.1, 1e-6, -5.3333333333352010e-8, 1e-9),
]


@pytest.mark.parametrize("t, omega, coupling, gamma, expected, rtol", KERNEL_REFERENCE)
def test_kernel_double_integral_reference_values(t, omega, coupling, gamma, expected, rtol):
    p = ModelParams(omega=omega, coupling=coupling, gamma=gamma, n_trunc=8)
    assert kernel_double_integral(t, p) == pytest.approx(expected, rel=rtol, abs=0.0)


# 30-digit reference values (z, t, (e^{z t} - 1) / z) from 40-digit
# arithmetic; the first rows have |z t| -> 0, where the plain difference
# e^{z t} - 1 cancels
GROWTH_REFERENCE = [
    (2e-8, 1.0, 1.00000001000000006666666720923),
    (1e-6, 1.0, 1.00000050000016666670831071571),
    (1e-9 + 1e-9j, 3.0, 3.00000000450000000000000027352 + 4.50000000900000028701716137763e-9j),
    (0.1 + 1e-7j, 1.0, 1.05170918075647445427621623931 + 5.34617373191713293319253138999e-8j),
    (-0.1 + 1j, 2.0, 0.869842562697611531188686385869 + 1.25372795660750054856816617805j),
    (0.1 + 1j, 5.0, -1.61805035716946318338681282086 + 0.370515085416547834410410568088j),
    (-2.0, 10.0, 0.499999998969423188780721086017),
    (0.0, 2.5, 2.5),
]


@pytest.mark.parametrize("z, t, expected", GROWTH_REFERENCE)
def test_growth_integral_reference_values(z, t, expected):
    got = _growth_integral(complex(z), t)
    assert abs(got - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("omega, gamma", [(1.0, 0.2), (0.0, 0.4), (2.5, 0.05)])
def test_kernel_double_integral_matches_triangle_quadrature(omega, gamma):
    p = ModelParams(omega=omega, coupling=0.1, gamma=gamma, n_trunc=8)
    for t in (0.5, 2.0):
        quad = triangle_double_integral(lambda s, sp: drive_commutator_kernel(s, sp, p), t,
                                        tol=1e-11)
        assert abs(kernel_double_integral(t, p) - complex(quad).real) < 1e-10


def test_cross_reduces_to_loss_channel_when_uncoupled():
    n = 30
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.3, n_trunc=n)
    rho0 = coherent_projector(0.9, n)
    grid = TimeGrid(0.0, 2.0, 500)
    lab = integrate_component({"cross": rho0}, p, grid)["cross"].final
    got = evolve_cross(rho0, 2.0, p)
    assert np.max(np.abs(got - lab)) < 1e-8


@pytest.mark.parametrize("gamma, t", [(1.0, 60.0), (2.0, 30.0), (0.5, 80.0)])
def test_cross_overflow_is_reported(gamma, t):
    # e^{4 m2* a} overflows once |m2| ~ c e^{g t / 2} is large enough
    p = ModelParams(omega=1.0, coupling=0.1, gamma=gamma, n_trunc=20)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ClosedFormOverflow, match=f"t={t:g}"):
            evolve_cross(coherent_projector(0.5, 20), t, p)


@pytest.mark.parametrize("gamma, t", [(1.0, 60.0), (2.0, 30.0), (0.5, 80.0)])
def test_cross_overflow_warns_nothing(gamma, t):
    # the seed product overflows on purpose; only ClosedFormOverflow reports it
    p = ModelParams(omega=1.0, coupling=0.1, gamma=gamma, n_trunc=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ClosedFormOverflow):
            evolve_cross(coherent_projector(0.5, 20), t, p)


@pytest.mark.parametrize("scalar", [lambda t, p: displacement_amplitude(t, p, 1),
                                    drive_integrals, kernel_double_integral],
                         ids=["displacement_amplitude", "drive_integrals",
                              "kernel_double_integral"])
def test_closed_form_scalars_report_overflow(scalar):
    # e^{g t / 2} at g t = 1500 leaves the float range
    p = ModelParams(omega=1.0, coupling=0.1, gamma=1.0, n_trunc=8)
    with pytest.raises(ClosedFormOverflow, match="overflows at t=1500 "):
        scalar(1500.0, p)


def test_plus_minus_finite_where_displacement_amplitude_overflows():
    # lambda ~ e^{g t / 2} overflows at g t = 1500, but the damped center
    # e^{-z t} lambda = -i c (1 - e^{-z t}) / z, z = i w + g/2, is finite
    p = ModelParams(omega=1.0, coupling=0.1, gamma=1.0, n_trunc=8)
    for sign in (1, -1):
        center = coherent_center(1500.0, p, sign, 1.0 + 0.5j)
        assert abs(center - sign * (-0.08 - 0.04j)) < 1e-15
    vacuum = np.zeros((8, 8), dtype=complex)
    vacuum[0, 0] = 1.0
    d = displacement(-0.08 - 0.04j, 8)
    state = evolve_plus_minus(vacuum, 1500.0, p, 1)
    assert np.max(np.abs(state - d @ vacuum @ d.conj().T)) < 1e-15


def test_cross_identity_at_t0():
    rho0 = coherent_projector(1.0, 30)
    p = ModelParams(omega=1.0, coupling=0.05, gamma=0.2, n_trunc=30)
    assert np.max(np.abs(evolve_cross(rho0, 0.0, p) - rho0)) < 1e-12


def test_cross_deviation_vs_oracle_is_reported_scale():
    # the literal closed form deviates from the ground truth by a smooth
    # scalar factor; the deviation is data, not an assertion of equality,
    # but it must stay at the few-permille scale for standard parameters
    n = 40
    p = ModelParams(omega=1.0, coupling=0.05, gamma=0.2, n_trunc=n)
    rho0 = coherent_projector(1.0, n)
    grid = TimeGrid(0.0, 3.0, 750)
    traj = integrate_component({"cross": rho0}, p, grid,
                               store_steps=grid.stored_steps(250))["cross"]
    devs = []
    for t in (1.0, 2.0, 3.0):
        lab = traj.states[grid.step_index(t)]
        devs.append(np.max(np.abs(evolve_cross(rho0, t, p) - lab)))
    assert all(d < 0.05 for d in devs)
    # the doubled-space factorization (ground-truth route) pins the blame
    # on the scalar prefactor: dividing it out must collapse the deviation
    mu1, mu2 = drive_integrals(3.0, p)
    factor = np.exp(mu1 * np.conj(mu2) + np.conj(mu1) * mu2)
    lab = traj.states[grid.step_index(3.0)]
    rescaled = evolve_cross(rho0, 3.0, p) / factor
    assert np.max(np.abs(rescaled - lab)) < 1e-9


@pytest.mark.parametrize("branch", ["plus", "minus", "cross"])
def test_closed_form_state_past_the_float_range_is_reported(branch):
    # at w = 1e308 and N = 12 the phase w t (N - 1) of e^{-(i w + g/2) t a+a}
    # leaves the float range between t = 0.1 and t = 0.2; the state had come
    # back with NaN entries and a RuntimeWarning
    p = ModelParams(omega=1e308, coupling=0.1, gamma=0.2, n_trunc=12)
    rho0 = coherent_projector(0.5, 12)

    def evolve(t):
        if branch == "cross":
            return evolve_cross(rho0, t, p)
        return evolve_plus_minus(rho0, t, p, 1 if branch == "plus" else -1)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(evolve(0.1)))
        with pytest.raises(ClosedFormOverflow, match=f"^{branch} closed form overflows at t=0.2$"):
            evolve(0.2)
