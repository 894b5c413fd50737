"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they execute).  Desk scale throughout: truncation <= 50, runtimes
seconds to a minute per criterion.
"""

import json
import math
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from jcdamp.cli import RunConfig, cmd_compare
from jcdamp.doubled import (
    commutator_generator_factory,
    devectorize,
    vectorize,
)
from jcdamp.factorize import (
    FactorizationProblem,
    factorized_propagator,
    time_ordered_propagator,
)
from jcdamp.fock import ModelParams, coherent_state
from jcdamp.model import ATOM_DOWN
from jcdamp.oracle import TimeGrid, integrate_component, integrate_joint
from jcdamp.solution import (
    coherent_center,
    evolve_plus_minus,
)
from jcdamp.wigner import (
    gaussian_grid,
    wigner_grid,
    wigner_operator,
)
from reference import (
    acomm_partners,
    damped_frame_drive,
    drive_commutator_kernel,
    interior_indices,
    wigner_operator_series,
)


def report(num, description, ok):
    print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def coherent_projector(alpha, n):
    v = coherent_state(alpha, n).vec
    return np.outer(v, v.conj())


def test_criterion_1_oracle_lossy_cavity():
    n = 40
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.2, n_trunc=n)
    rho0 = np.kron(np.outer(ATOM_DOWN, ATOM_DOWN.conj()),
                   coherent_projector(1.0, n))
    started = time.time()
    grid = TimeGrid(0.0, 10.0, 2000)
    traj = integrate_joint(rho0, p, grid, store_steps=grid.stored_steps(100))
    elapsed = time.time() - started
    worst_fid = 1.0
    worst_drift = 0.0
    for t, state in zip(traj.times, traj.states.values()):
        alpha_t = np.exp(-(1j * p.omega + 0.5 * p.gamma) * t)
        psi = np.kron(ATOM_DOWN, coherent_state(alpha_t, n).vec)
        worst_fid = min(worst_fid, float(np.real(psi.conj() @ state @ psi)))
        worst_drift = max(worst_drift, abs(np.trace(state).real - 1.0))
    ok = worst_fid >= 1.0 - 1e-7 and worst_drift <= 1e-8 and elapsed < 10.0
    report(1, f"lossy-cavity fidelity {worst_fid:.10f}, trace drift "
              f"{worst_drift:.1e}, runtime {elapsed:.1f}s", ok)


def test_criterion_2_closed_form_matches_oracle_sweep():
    n = 40
    started = time.time()
    worst = 0.0
    for gamma in (0.1, 0.3):
        for coupling in (0.05, 0.1):
            p = ModelParams(omega=1.0, coupling=coupling, gamma=gamma, n_trunc=n)
            for alpha0 in (0.5, 1.0 + 0.5j):
                rho0 = coherent_projector(alpha0, n)
                grid = TimeGrid(0.0, 5.0, 1000)
                trajs = integrate_component({"plus": rho0, "minus": rho0}, p, grid,
                                            store_steps=grid.stored_steps(250))
                for sign, kind in ((1, "plus"), (-1, "minus")):
                    traj = trajs[kind]
                    for t in (1.25, 2.5, 3.75, 5.0):
                        lab = traj.states[grid.step_index(t)]
                        got = evolve_plus_minus(rho0, t, p, sign)
                        worst = max(worst, float(np.max(np.abs(got - lab))))
    elapsed = time.time() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    report(2, f"closed form vs oracle sweep, worst entry dev {worst:.2e}, "
              f"runtime {elapsed:.1f}s", ok)


def test_criterion_3_coherence_preservation_and_memory_loss():
    n = 40
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    alpha0 = 1.0
    rho0 = coherent_projector(alpha0, n)
    worst_fid_deficit = 0.0
    for sign in (1, -1):
        for t in (1.0, 3.0, 5.0):
            state = evolve_plus_minus(rho0, t, p, sign)
            target = coherent_state(coherent_center(t, p, sign, alpha0), n).vec
            fid = float(np.real(target.conj() @ state @ target))
            worst_fid_deficit = max(worst_fid_deficit, 1.0 - fid)
    # the sustained center forgets alpha0 as e^{-g t / 2}; parameters are
    # chosen so that at g t = 20 the residual memory sits below 1e-6
    p_far = ModelParams(omega=1.0, coupling=0.01, gamma=0.2, n_trunc=n)
    t_far = 100.0  # g t = 20
    worst_center = 0.0
    for sign in (1, -1):
        limit = -sign * 2j * p_far.coupling / (2j * p_far.omega + p_far.gamma)
        center = coherent_center(t_far, p_far, sign, 0.01)
        worst_center = max(worst_center, abs(center - limit))
    ok = worst_fid_deficit <= 1e-8 and worst_center <= 1e-6
    report(3, f"coherent stays coherent (fid deficit {worst_fid_deficit:.1e}), "
              f"center forgets initial state (dev {worst_center:.1e} at gt=20)", ok)


def evolve_vectorized_sparse(p, sign, rho0, grid):
    from jcdamp.doubled import evolve_vectorized
    gen = commutator_generator_factory(p, sign)
    return devectorize(evolve_vectorized(gen, vectorize(rho0), grid)[grid.n_steps])


def test_criterion_4_doubled_space_equivalence():
    n = 30
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    rho0 = coherent_projector(1.0, n)
    grid = TimeGrid(0.0, 5.0, 1250)
    k = n - 4
    worst = 0.0
    oracles = integrate_component({"plus": rho0, "minus": rho0}, p, grid)
    for sign, kind in ((1, "plus"), (-1, "minus")):
        oracle = oracles[kind].final
        v = evolve_vectorized_sparse(p, sign, rho0, grid)
        worst = max(worst, float(np.max(np.abs(v[:k, :k] - oracle[:k, :k]))))
    ok = worst <= 1e-6
    report(4, f"doubled-space evolution vs oracle, interior dev {worst:.2e}", ok)


def test_criterion_5_commutator_algebra(dense_superoperators):
    n = 30
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    ds = dense_superoperators(n)
    a_partner, ad_partner = acomm_partners(ds)
    idx = interior_indices(n)
    eye = np.eye(n * n, dtype=complex)

    def interior_max(mat):
        return float(np.max(np.abs(mat[np.ix_(idx, idx)])))

    devs = []
    comm = lambda x, y: x @ y - y @ x
    # dissipator ladder relations
    devs.append(interior_max(comm(ds.dissipator, ds.comm_a) + ds.comm_a))
    devs.append(interior_max(comm(ds.dissipator, ds.comm_ad) + ds.comm_ad))
    # the four anticommutator-partner relations
    devs.append(interior_max(comm(ds.dissipator, ds.acomm_a) - a_partner))
    devs.append(interior_max(comm(ds.dissipator, a_partner) - ds.acomm_a))
    devs.append(interior_max(comm(ds.dissipator, ds.acomm_ad) - ad_partner))
    devs.append(interior_max(comm(ds.dissipator, ad_partner) - ds.acomm_ad))
    # scalar cross commutators
    devs.append(interior_max(comm(ds.acomm_a, ad_partner) + 4.0 * eye))
    devs.append(interior_max(comm(ds.acomm_ad, a_partner) + 4.0 * eye))
    # damping-frame drive commutes with itself across times
    for t1, t2 in ((0.0, 0.9), (0.5, 2.1), (1.3, 3.0)):
        g1 = damped_frame_drive(t1, p, 1)
        g2 = damped_frame_drive(t2, p, 1)
        devs.append(interior_max(comm(g1, g2)))
    worst = max(devs)
    ok = worst <= 1e-9
    report(5, f"doubled-space commutator algebra, worst interior dev {worst:.2e}", ok)


def test_criterion_6_factorization_theorem(dense_superoperators):
    # (a) nilpotent constant pair with central commutator
    def block(i, j, dim=6):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, j] = 1.0
        return m

    a = 0.8 * (block(0, 1) + 0.5 * block(3, 4))
    b = -1.3 * (block(1, 2) - 0.7 * block(4, 5))
    cab = a @ b - b @ a
    t_bch = 1.3
    prob = FactorizationProblem(lambda s: a, lambda s: b, lambda s, sp_: cab,
                                TimeGrid(0.0, t_bch, 200))
    fact = factorized_propagator(prob, t_bch)
    dev_bch = float(np.max(np.abs(fact - scipy.linalg.expm(t_bch * (a + b)))))
    ordered = time_ordered_propagator(lambda s: a + b, TimeGrid(0.0, t_bch, 200))
    dev_bch_ord = float(np.max(np.abs(fact - ordered)))

    # (b) the doubled-space drive-splitting problem
    n = 16
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.3, n_trunc=n)
    ds = dense_superoperators(n)
    a_partner, ad_partner = acomm_partners(ds)

    def a_of(t):
        return -1j * p.coupling * math.cosh(0.5 * p.gamma * t) * (
            ds.acomm_a * np.exp(-1j * p.omega * t)
            + ds.acomm_ad * np.exp(1j * p.omega * t))

    def b_of(t):
        return 1j * p.coupling * math.sinh(0.5 * p.gamma * t) * (
            a_partner * np.exp(-1j * p.omega * t)
            + ad_partner * np.exp(1j * p.omega * t))

    kernel = lambda s, sp_: drive_commutator_kernel(s, sp_, p)
    t_end = 1.2
    grid = TimeGrid(0.0, t_end, 1200)
    dprob = FactorizationProblem(a_of, b_of, kernel, grid,
                                 restrict=interior_indices(n))
    dfact = factorized_propagator(dprob, t_end, check=False)
    v = coherent_state(0.6, n).vec
    v0 = vectorize(np.outer(v, v.conj()))
    a_sp = [sp.csr_matrix(ds.acomm_a), sp.csr_matrix(ds.acomm_ad),
            sp.csr_matrix(a_partner), sp.csr_matrix(ad_partner)]

    def gen_sparse(t):
        ch = math.cosh(0.5 * p.gamma * t)
        sh = math.sinh(0.5 * p.gamma * t)
        return (-1j * p.coupling * ch * np.exp(-1j * p.omega * t) * a_sp[0]
                - 1j * p.coupling * ch * np.exp(1j * p.omega * t) * a_sp[1]
                + 1j * p.coupling * sh * np.exp(-1j * p.omega * t) * a_sp[2]
                + 1j * p.coupling * sh * np.exp(1j * p.omega * t) * a_sp[3])

    ordered_v = time_ordered_propagator(gen_sparse, grid, v0=v0)
    dev_doubled = float(np.max(np.abs(dfact @ v0 - ordered_v)))

    # (c) kernel equals the matrix commutator scalar on the interior
    idx = interior_indices(n)
    dev_kernel = 0.0
    for s, sp_ in ((1.2, 0.5), (0.9, 0.9), (2.0, 1.4)):
        cmat = a_of(s) @ b_of(sp_) - b_of(sp_) @ a_of(s)
        sub = cmat[np.ix_(idx, idx)]
        dev_kernel = max(dev_kernel, float(np.max(np.abs(
            sub - kernel(s, sp_) * np.eye(len(idx))))))

    ok = dev_bch <= 1e-7 and dev_bch_ord <= 1e-7 and dev_doubled <= 1e-7 \
        and dev_kernel <= 1e-9
    report(6, f"factorization: nilpotent {dev_bch:.1e}/{dev_bch_ord:.1e}, "
              f"doubled-space {dev_doubled:.1e}, kernel {dev_kernel:.1e}", ok)


def test_criterion_7_cross_branch_audit(tmp_path):
    doc = {
        "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 40},
        "initial": {"coherent_alpha0": [1.0, 0.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 5.0, "n_steps": 1250},
        "outputs": ["compare"],
        "compare": {"doubled_n_trunc": 30},
    }
    cfg = RunConfig(doc)
    exit_code, _ = cmd_compare(cfg, str(tmp_path))
    rep = json.loads((tmp_path / "compare_report.json").read_text())
    cross = rep["components"]["cross"]
    # the closed-form deviation is always present, as data
    has_field = "analytic_max_dev" in cross and cross["analytic_max_dev"] > 0
    doubled_ok = cross["doubled_max_dev"] <= 1e-6
    pm_ok = rep["components"]["plus"]["passed"] and rep["components"]["minus"]["passed"]
    ok = exit_code == 0 and has_field and doubled_ok and pm_ok and rep["overall_pass"]
    report(7, f"cross-branch audit: closed-form dev {cross['analytic_max_dev']:.2e} "
              f"(reported), doubled-space vs oracle {cross['doubled_max_dev']:.2e}", ok)


def test_criterion_8_wigner():
    # displaced parity vs exact normally ordered series; the certified
    # block per alpha keeps the displaced states clear of the boundary
    n = 50
    dev_series = 0.0
    for alpha, block in ((2.0, 14), (1.2 - 0.7j, 22), (0.5j, 30)):
        ser = wigner_operator_series(alpha, n, block=block)
        dp = wigner_operator(alpha, n)[:block, :block]
        dev_series = max(dev_series, float(np.max(np.abs(ser - dp))))

    # closed-form Gaussian vs operator-route grid on the closed-form state
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    alpha0 = 1.0
    rho0 = coherent_projector(alpha0, n)
    t = 1.5
    dev_grid = 0.0
    box = (-2.0, 2.0, 21, -2.0, 2.0, 21)
    for sign in (1, -1):
        state = evolve_plus_minus(rho0, t, p, sign)
        sampled = wigner_grid(state, *box).values
        closed = gaussian_grid(t, p, sign, alpha0, *box).values
        dev_grid = max(dev_grid, float(np.max(np.abs(sampled - closed))))

    state = evolve_plus_minus(rho0, t, p, 1)
    center = coherent_center(t, p, 1, alpha0)
    grid = wigner_grid(state, center.real - 3.0, center.real + 3.0, 41,
                       center.imag - 3.0, center.imag + 3.0, 41)
    norm = grid.normalization()

    ok = dev_series <= 1e-8 and dev_grid <= 1e-6 and abs(norm - 1.0) <= 0.01
    report(8, f"wigner: series vs parity {dev_series:.2e}, closed vs grid "
              f"{dev_grid:.2e}, normalization {norm:.4f}", ok)


def test_criterion_9_convergence_orders():
    n = 12
    p = ModelParams(omega=1.0, coupling=0.15, gamma=0.3, n_trunc=n)
    rho0 = np.kron(np.diag([1.0, 0.0]).astype(complex),
                   coherent_projector(0.8, n))

    def final(steps):
        return integrate_joint(rho0, p, TimeGrid(0.0, 1.0, steps)).final

    ref = final(160)
    rk4_ratio = float(np.max(np.abs(final(40) - ref))
                      / np.max(np.abs(final(80) - ref)))

    rng = np.random.default_rng(3)
    g0 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    g1 = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    gen = lambda t: g0 * np.cos(1.3 * t) + g1 * np.sin(0.7 * t)

    def prop(steps):
        return time_ordered_propagator(gen, TimeGrid(0.0, 1.0, steps))

    pref = prop(64)
    pi_ratio = float(np.max(np.abs(prop(16) - pref))
                     / np.max(np.abs(prop(32) - pref)))

    ok = rk4_ratio >= 12.0 and pi_ratio >= 3.9
    report(9, f"convergence orders: RK4 ratio {rk4_ratio:.1f} (>= 12), "
              f"product integral ratio {pi_ratio:.2f} (>= 3.9)", ok)
