import numpy as np
import pytest

from jcdamp.fock import ModelParams, annihilation, coherent_state, number_operator
from jcdamp.model import (
    ATOM_DOWN,
    ATOM_UP,
    SIGMA_X,
    ComponentSet,
    check_joint_density,
    combine_components,
    decoupled_rhs,
    field_from_rotational,
    from_rotational_picture,
    hamiltonian_full,
    split_components,
    to_rotational_picture,
)
from jcdamp.oracle import _embed
from reference import (
    component_rhs,
    dense_damping,
    joint_annihilation,
    lab_frame_rhs,
)

KINDS = ["plus", "minus", "cross"]


def random_joint_density(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def coherent_up_state(alpha, n):
    v = coherent_state(alpha, n).vec
    return np.kron(np.outer(ATOM_UP, ATOM_UP.conj()), np.outer(v, v.conj()))


def test_hamiltonian_uncoupled_is_free_field():
    p = ModelParams(omega=1.3, coupling=0.0, gamma=0.0, n_trunc=6)
    h = hamiltonian_full(p)
    expected = np.kron(np.eye(2), 1.3 * number_operator(6))
    assert np.max(np.abs(h - expected)) < 1e-14


def test_hamiltonian_single_coupling_element():
    p = ModelParams(omega=1.0, coupling=0.25, gamma=0.0, n_trunc=5)
    h = hamiltonian_full(p)
    # <1, up | H | 0, down>: row (up, n=1), column (down, n=0)
    assert h[1, 5] == pytest.approx(0.25)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_hamiltonian_spectrum_symmetric_at_zero_frequency():
    p = ModelParams(omega=0.0, coupling=0.4, gamma=0.0, n_trunc=14)
    eigs = np.sort(np.linalg.eigvalsh(hamiltonian_full(p)))
    assert np.max(np.abs(eigs + eigs[::-1])) < 1e-10


def test_lindblad_dark_state():
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.5, n_trunc=6)
    rho = np.kron(np.outer(ATOM_DOWN, ATOM_DOWN.conj()),
                  np.diag([1.0] + [0.0] * 5)).astype(complex)
    assert np.max(np.abs(lab_frame_rhs(p)(0.0, rho))) < 1e-14


def test_lindblad_trace_free():
    p = ModelParams(omega=0.9, coupling=0.2, gamma=0.3, n_trunc=8)
    for seed in range(100):
        rho = random_joint_density(8, seed)
        assert abs(np.trace(lab_frame_rhs(p)(0.0, rho))) < 1e-12


def test_lindblad_photon_decay_rate():
    # uncoupled coherent state: d<n>/dt = -gamma <n>
    n = 24
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.37, n_trunc=n)
    rho = coherent_up_state(1.1, n)
    n_joint = np.kron(np.eye(2), number_operator(n))
    got = np.trace(n_joint @ lab_frame_rhs(p)(0.0, rho)).real
    expected = -0.37 * np.trace(n_joint @ rho).real
    assert abs(got - expected) < 1e-9


def test_lindblad_rejects_dimension_mismatch():
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.1, n_trunc=8)
    with pytest.raises(ValueError):
        lab_frame_rhs(p)(0.0, np.eye(10, dtype=complex))


def test_rotational_picture_identity_at_t0():
    p = ModelParams(omega=1.2, coupling=0.1, gamma=0.1, n_trunc=7)
    rho = random_joint_density(7, 3)
    assert np.max(np.abs(to_rotational_picture(rho, 0.0, p) - rho)) == 0.0


def test_rotational_picture_preserves_number_diagonal():
    p = ModelParams(omega=1.2, coupling=0.1, gamma=0.1, n_trunc=7)
    diag = np.kron(np.diag([0.4, 0.6]), np.diag(np.linspace(0.3, 0.0, 7))).astype(complex)
    assert np.max(np.abs(to_rotational_picture(diag, 2.3, p) - diag)) < 1e-14


def test_rotational_picture_round_trip():
    p = ModelParams(omega=0.8, coupling=0.1, gamma=0.1, n_trunc=9)
    rho = random_joint_density(9, 5)
    back = from_rotational_picture(to_rotational_picture(rho, 1.7, p), 1.7, p)
    assert np.max(np.abs(back - rho)) < 1e-12


def test_frame_changes_multiply_state_by_phase_at_any_size():
    # from 256 KiB up numpy may compute `phases * rho` for `rho * phases`,
    # and the complex multiply rounds the two orders differently: each
    # frame change must give the row-by-row product state * phase bit for bit
    t = 0.37
    p = ModelParams(omega=1.0, coupling=0.3, gamma=0.2, n_trunc=72)
    rho = random_joint_density(72, 11)
    assert rho.nbytes > 256 * 1024
    levels = np.arange(2 * 72) % 72  # the field level of each joint row and column
    phases = np.exp(-1j * p.omega * t * (levels[:, None] - levels[None, :]))
    for convert, ph in ((from_rotational_picture, phases),
                        (to_rotational_picture, phases.conj())):
        want = np.array([row * ph_row for row, ph_row in zip(rho, ph)])
        assert np.array_equal(convert(rho, t, p), want)
    p = ModelParams(omega=1.0, coupling=0.3, gamma=0.2, n_trunc=136)
    mat = random_joint_density(68, 12)
    assert mat.nbytes > 256 * 1024
    levels = np.arange(136)
    phases = np.exp(-1j * p.omega * t * (levels[:, None] - levels[None, :]))
    want = np.array([row * ph_row for row, ph_row in zip(mat, phases)])
    assert np.array_equal(field_from_rotational(mat, t, p), want)


def test_rotational_rhs_consistent_with_lab_frame():
    # d(rot)/dt = i w [n, rot] + U+ (lab rhs) U: the component stack's
    # right-hand side on the split of rot is the split of that derivative
    p = ModelParams(omega=1.1, coupling=0.17, gamma=0.23, n_trunc=8)
    rho_rot = exactly_hermitian_density(8, 8)
    t = 0.9
    rho_lab = from_rotational_picture(rho_rot, t, p)
    lab_deriv = to_rotational_picture(lab_frame_rhs(p)(0.0, rho_lab), t, p)
    n_joint = np.kron(np.eye(2), number_operator(8))
    expected = split_components(1j * p.omega * (n_joint @ rho_rot - rho_rot @ n_joint)
                                + lab_deriv)
    cs = split_components(rho_rot)
    got = decoupled_rhs(KINDS, p)(t, np.stack([getattr(cs, kind) for kind in KINDS]))
    for kind, slice_ in zip(KINDS, got):
        assert np.max(np.abs(slice_ - getattr(expected, kind))) < 1e-12


def test_split_coherent_up_initial_state():
    n = 16
    rho = coherent_up_state(0.8, n)
    v = coherent_state(0.8, n).vec
    proj = np.outer(v, v.conj())
    cs = split_components(rho)
    assert np.max(np.abs(cs.rho0 - proj)) < 1e-14
    assert np.max(np.abs(cs.rho3 - proj)) < 1e-14
    assert np.max(np.abs(cs.rho1)) == 0.0
    assert np.max(np.abs(cs.rho2)) == 0.0
    plus, minus, cross = cs.plus, cs.minus, cs.cross
    for comp in (plus, minus, cross):
        assert np.max(np.abs(comp - proj)) < 1e-14


def test_split_maximally_mixed_spin():
    n = 6
    field = np.diag(np.linspace(0.5, 0.0, n)).astype(complex)
    field /= np.trace(field)
    rho = np.kron(0.5 * np.eye(2), field)
    cs = split_components(rho)
    assert np.max(np.abs(cs.rho1)) == 0.0
    assert np.max(np.abs(cs.rho2)) == 0.0
    assert np.max(np.abs(cs.rho3)) == 0.0


def test_split_combine_round_trip_exact():
    rho = random_joint_density(10, 21)
    cs = split_components(rho)
    assert np.max(np.abs(combine_components(cs) - rho)) < 1e-15


@pytest.mark.parametrize("hermitian", [True, False])
def test_split_matches_pauli_expansion(hermitian):
    """``split_components`` reads back each rho_k of rho = (1/2) sum_k sigma_k (x) rho_k
    (atom factor first, the ``np.kron`` block layout), with the Pauli matrices written
    here from integers rather than taken from ``model``."""
    n = 6
    rng = np.random.default_rng(5 + hermitian)
    rhos = []
    for _ in range(4):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rhos.append(m + m.conj().T if hermitian else m)
    paulis = [np.array([[1, 0], [0, 1]]), np.array([[0, 1], [1, 0]]),
              1j * np.array([[0, -1], [1, 0]]), np.array([[1, 0], [0, -1]])]
    rho = 0.5 * sum(np.kron(sigma, r) for sigma, r in zip(paulis, rhos))
    cs = split_components(rho)
    tol = 1e-15 * max(np.max(np.abs(r)) for r in rhos)
    for got, want in zip((cs.rho0, cs.rho1, cs.rho2, cs.rho3), rhos):
        assert np.max(np.abs(got - want)) <= tol
    rho0, rho1, rho2, rho3 = rhos
    assert np.max(np.abs(cs.plus - (rho0 + rho1))) <= 2 * tol
    assert np.max(np.abs(cs.minus - (rho0 - rho1))) <= 2 * tol
    assert np.max(np.abs(cs.cross - (rho3 + 1j * rho2))) <= 2 * tol


def test_derived_component_sum_identity():
    rho = random_joint_density(6, 2)
    cs = split_components(rho)
    assert np.max(np.abs(cs.plus + cs.minus - 2.0 * cs.rho0)) < 1e-16


def test_derived_components_degenerate_cases():
    n = 5
    z = np.zeros((n, n), dtype=complex)
    r = np.diag(np.arange(n, dtype=float)).astype(complex)
    cs = ComponentSet(rho0=r, rho1=z, rho2=z, rho3=z)
    assert np.max(np.abs(cs.plus - r)) == 0.0
    assert np.max(np.abs(cs.minus - r)) == 0.0
    assert np.max(np.abs(cs.cross)) == 0.0


def test_component_rhs_matches_joint_rotating_frame():
    p = ModelParams(omega=1.0, coupling=0.13, gamma=0.21, n_trunc=9)
    rho = random_joint_density(9, 13)
    t = 0.6
    cs = split_components(rho)
    drs = component_rhs(cs, t, p)
    direct = split_components(_dense_rotating_joint_rhs(p, t, rho))
    for name in ("rho0", "rho1", "rho2", "rho3"):
        assert np.max(np.abs(getattr(drs, name) - getattr(direct, name))) < 1e-10


def test_component_rhs_pure_damping_when_uncoupled():
    p = ModelParams(omega=1.0, coupling=0.0, gamma=0.4, n_trunc=8)
    rho = random_joint_density(8, 17)
    cs = split_components(rho)
    drs = component_rhs(cs, 1.1, p)
    a = annihilation(8)
    n_op = a.conj().T @ a
    for name in ("rho0", "rho1", "rho2", "rho3"):
        comp = getattr(cs, name)
        damped = 0.2 * (2 * a @ comp @ a.conj().T - n_op @ comp - comp @ n_op)
        assert np.max(np.abs(getattr(drs, name) - damped)) < 1e-13


def test_cross_rhs_is_anticommutator_form():
    # d(rho3 + i rho2) assembled from the coupled pair equals the
    # decoupled anticommutator equation exactly
    p = ModelParams(omega=0.9, coupling=0.19, gamma=0.15, n_trunc=8)
    rho = random_joint_density(8, 23)
    t = 1.4
    cs = split_components(rho)
    drs = component_rhs(cs, t, p)
    assembled = drs.rho3 + 1j * drs.rho2
    direct = decoupled_rhs(["cross"], p)(t, cs.cross[None])[0]
    assert np.max(np.abs(assembled - direct)) < 1e-12


def test_cross_adjoint_flow_is_conjugate_equation():
    # the flow of rho3 - i rho2 is the adjoint of the cross flow
    p = ModelParams(omega=0.9, coupling=0.19, gamma=0.15, n_trunc=8)
    rho = random_joint_density(8, 29)
    cs = split_components(rho)
    drs = component_rhs(cs, 0.8, p)
    conj_flow = drs.rho3 - 1j * drs.rho2
    direct = decoupled_rhs(["cross"], p)(0.8, cs.cross[None])[0]
    assert np.max(np.abs(conj_flow - direct.conj().T)) < 1e-10


def test_plus_minus_decoupling_matches_pair_flow():
    p = ModelParams(omega=1.0, coupling=0.11, gamma=0.3, n_trunc=9)
    rho = random_joint_density(9, 31)
    cs = split_components(rho)
    drs = component_rhs(cs, 0.5, p)
    direct = decoupled_rhs(["plus", "minus"], p)(0.5, np.stack([cs.plus, cs.minus]))
    assert np.max(np.abs((drs.rho0 + drs.rho1) - direct[0])) < 1e-10
    assert np.max(np.abs((drs.rho0 - drs.rho1) - direct[1])) < 1e-10


def test_component_rhs_preserves_hermiticity_and_trace():
    p = ModelParams(omega=1.0, coupling=0.2, gamma=0.25, n_trunc=8)
    rho = random_joint_density(8, 37)
    cs = split_components(rho)
    drs = component_rhs(cs, 0.4, p)
    for name in ("rho0", "rho1", "rho2", "rho3"):
        d = getattr(drs, name)
        assert np.max(np.abs(d - d.conj().T)) < 1e-12
    assert abs(np.trace(drs.rho0)) < 1e-12


def test_check_joint_density_accepts_valid_rejects_invalid():
    rho = random_joint_density(6, 41)
    check_joint_density(rho)
    bad = rho.copy()
    bad[0, 3] += 1e-3  # breaks Hermiticity
    with pytest.raises(ValueError):
        check_joint_density(bad)


def _dense_rotating_joint_rhs(p, t, rho):
    """-i c [sigma_x (x) X(t), rho] + D[rho], the joint equation in the rotating
    frame, from dense products."""
    k = p.coupling * np.kron(SIGMA_X, _field_coupling(t, p))
    return -1j * (k @ rho - rho @ k) + dense_damping(p.gamma, joint_annihilation(p.n_trunc), rho)


def test_joint_annihilation_acts_on_field_only():
    n = 5
    aj = joint_annihilation(n)
    a = annihilation(n)
    assert np.array_equal(aj[:n, :n], a)
    assert np.array_equal(aj[n:, n:], a)
    assert np.max(np.abs(aj[:n, n:])) == 0.0


def test_damping_matches_dense_products():
    # the one fast D (``decoupled_rhs`` with no coupling) against the dense
    # formula: on random non-Hermitian matrices as a cross stack, and on their
    # Hermitian parts as a plus stack, each written into a caller's buffer,
    # and one slice at a time
    n = 9
    p = ModelParams(omega=1.3, coupling=0.0, gamma=0.37, n_trunc=n)
    a = annihilation(n)
    rng = np.random.default_rng(41)
    stack = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    hermitian = 0.5 * (stack + stack.conj().swapaxes(1, 2))
    for kind, mats in (("cross", stack), ("plus", hermitian)):
        damp, single = decoupled_rhs([kind] * 3, p), decoupled_rhs([kind], p)
        out = np.full_like(mats, np.nan)
        stacked = damp(0.0, mats, out)
        assert stacked is out
        for mat, got in zip(mats, stacked):
            want = dense_damping(p.gamma, a, mat)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(single(0.0, mat[None])[0] - want)) <= 1e-15 * scale
            assert np.max(np.abs(got - want)) <= 1e-15 * scale


def exactly_hermitian_density(n, seed):
    # random_joint_density is Hermitian only up to the rounding of its product
    rho = random_joint_density(n, seed)
    return 0.5 * (rho + rho.conj().T)


def _field_coupling(t, p):
    # X(t) = a+ e^{i w t} + a e^{-i w t}, written out
    a = annihilation(p.n_trunc)
    return a.conj().T * np.exp(1j * p.omega * t) + a * np.exp(-1j * p.omega * t)


def test_joint_rhs_matches_dense_equation_of_motion():
    # both pictures against -i[K, rho] + D[rho] from dense products: the
    # rotating frame as the component stack's one-product form on the split
    # of rho, embedded as the oracle embeds its states, exactly Hermitian for
    # Hermitian input; the lab frame is the tests' dense reference, Hermitian
    # to rounding
    n, t = 9, 0.7
    p = ModelParams(omega=1.1, coupling=0.17, gamma=0.23, n_trunc=n)
    rho = exactly_hermitian_density(n, 43)
    a = joint_annihilation(n)
    cs = split_components(rho)
    stack = decoupled_rhs(KINDS, p)(t, np.stack([getattr(cs, kind) for kind in KINDS]))
    frames = {"lab": (hamiltonian_full(p), lab_frame_rhs(p)(t, rho)),
              "rotating": (p.coupling * np.kron(SIGMA_X, _field_coupling(t, p)), _embed(stack))}
    for frame, (k, got) in frames.items():
        want = -1j * (k @ rho - rho @ k) + dense_damping(p.gamma, a, rho)
        assert np.max(np.abs(got - want)) <= 1e-13
        if frame == "rotating":
            assert np.array_equal(got, got.conj().T)
        else:
            assert np.max(np.abs(got - got.conj().T)) <= 1e-16


@pytest.mark.parametrize("kinds", [("plus", "minus", "cross"), ("cross", "plus", "minus"),
                                   ("plus", "cross", "minus")])
def test_component_stack_rhs_matches_dense_equation_of_motion(kinds):
    # a mixed stack in any order, cross first, in the middle or last, the
    # Hermitian plus and minus slices in the one-product form
    n, t = 9, 1.3
    p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=n)
    cs = split_components(exactly_hermitian_density(n, 47))
    x = _field_coupling(t, p)
    a = annihilation(n)
    c = p.coupling
    want = {"plus": -1j * c * (x @ cs.plus - cs.plus @ x) + dense_damping(p.gamma, a, cs.plus),
            "minus": 1j * c * (x @ cs.minus - cs.minus @ x) + dense_damping(p.gamma, a, cs.minus),
            "cross": -1j * c * (x @ cs.cross + cs.cross @ x) + dense_damping(p.gamma, a, cs.cross)}
    stack = np.stack([getattr(cs, kind) for kind in kinds])
    got = decoupled_rhs(kinds, p)(t, stack)
    for kind, slice_ in zip(kinds, got):
        assert np.max(np.abs(slice_ - want[kind])) <= 1e-13
        if kind != "cross":
            assert np.array_equal(slice_, slice_.conj().T)


def _random_hermitian(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_fast_right_hand_sides_match_dense_references(n):
    # mixed component stacks with two cross slices, in order and interleaved,
    # against dense products, 1e-14 relative, at several t != 0, with random
    # non-Hermitian cross slices
    p = ModelParams(omega=0.9, coupling=0.23, gamma=0.31, n_trunc=n)
    rng = np.random.default_rng(53 + n)
    a, c = annihilation(n), p.coupling
    front = {"plus": -1j, "minus": 1j, "cross": -1j}
    for kinds in (["plus", "minus", "cross", "cross"], ["plus", "cross", "minus", "cross"]):
        components = decoupled_rhs(kinds, p)
        for t in (0.3, 1.7, 4.1):
            x = _field_coupling(t, p)
            stack = np.stack([_random_hermitian(n, rng) if kind != "cross" else
                              rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                              for kind in kinds])
            assert all(np.max(np.abs(y - y.conj().T)) > 0.1
                       for kind, y in zip(kinds, stack) if kind == "cross")
            got = components(t, stack, np.empty_like(stack))
            for kind, y, g in zip(kinds, stack, got):
                sign = 1.0 if kind == "cross" else -1.0
                want = front[kind] * c * (x @ y + sign * y @ x) + dense_damping(p.gamma, a, y)
                assert np.max(np.abs(g - want)) <= 1e-14 * np.max(np.abs(want))


def _random_stack(kinds, n, rng):
    """Random plus and minus slices, exactly Hermitian, and non-Hermitian cross
    slices, every entry non-zero, the first and last rows and columns too."""
    return np.stack([_random_hermitian(n, rng) if kind != "cross" else
                     rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for kind in kinds])


@pytest.mark.parametrize("n", [2, 9, 28])
def test_a_slice_gives_the_same_values_in_any_place(n):
    # a shift that leaves a slice meets a zero coefficient, so a slice's
    # result does not depend on its place: each slice of a cross, plus, minus
    # stack equals the same slice of the plus, minus, cross stack, exactly
    p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=n)
    rng = np.random.default_rng(89 + n)
    moved = ["cross", "plus", "minus"]
    for t in (0.0, 0.4, 2.9):
        y = dict(zip(KINDS, _random_stack(KINDS, n, rng)))
        want = dict(zip(KINDS, decoupled_rhs(KINDS, p)(t, np.stack(list(y.values())))))
        got = decoupled_rhs(moved, p)(t, np.stack([y[kind] for kind in moved]))
        for kind, slice_ in zip(moved, got):
            assert np.array_equal(slice_, want[kind])


def test_bound_stage_reads_and_writes_through_its_views():
    # a stage bound once reads y's current entries at each call and writes
    # out in place, through views made once, into NaN-filled buffers; each
    # call equals a fresh evaluation bit for bit, so no write leaves stale
    # entries for a later call to read; arrays it cannot view are rejected
    rng = np.random.default_rng(61)
    kinds = ["plus", "minus", "cross"]
    for n in (2, 7, 28):
        p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=n)
        rhs = decoupled_rhs(kinds, p)
        y = np.empty((3, n, n), dtype=complex)
        out, work = np.full_like(y, np.nan), np.full_like(y, np.nan)
        stage = rhs.bind(rhs.generator(0.4), y, out, work)
        for _ in range(3):
            y[...] = _random_stack(kinds, n, rng)
            assert np.all(y[:, [0, -1], :] != 0) and np.all(y[:, :, [0, -1]] != 0)
            assert stage() is out
            assert np.array_equal(out, rhs(0.4, y))
    for bad in (np.empty((3, n, 2 * n), dtype=complex)[..., ::2],
                np.empty((3, n, n)), np.empty((2, n, n), dtype=complex)):
        with pytest.raises(ValueError, match="C-contiguous complex"):
            rhs.bind(rhs.generator(0.4), y, bad, work)


def test_bind_rejects_arrays_that_share_memory():
    # the stencil reads y after it starts writing out, so arrays that overlap
    # would give a wrong result silently; bind names the pair instead
    n = 6
    p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=n)
    rhs = decoupled_rhs(["plus", "cross"], p)
    g = rhs.generator(0.4)
    y, out = np.zeros((2, n, n), dtype=complex), np.zeros((2, n, n), dtype=complex)
    with pytest.raises(ValueError, match="y and out share memory"):
        rhs.bind(g, y, y, out)
    with pytest.raises(ValueError, match="out and work share memory"):
        rhs.bind(g, y, out, out)
    y, out, work = np.zeros((3, 2, n, n), dtype=complex)  # distinct rows of one buffer
    y[...] = _random_stack(["plus", "cross"], n, np.random.default_rng(79))
    assert rhs.bind(g, y, out, work)() is out
    assert np.array_equal(out, rhs(0.4, y))


def test_bound_stage_calls_no_matmul(monkeypatch):
    # one right-hand-side path at every N: the stage is a stencil of elementwise
    # products, with no matrix product, counted around the stage calls alone
    calls = []
    real = np.matmul

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    rng = np.random.default_rng(71)
    for n in (2, 28, 64):
        p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=n)
        rhs = decoupled_rhs(KINDS, p)
        y = _random_stack(KINDS, n, rng)
        stage = rhs.bind(rhs.generator(0.4), y, np.empty_like(y), np.empty_like(y))
        calls.clear()
        stage()
        assert calls == []


@pytest.mark.parametrize("n", [2, 3, 28, 64])
def test_commutator_slices_come_out_exactly_hermitian(n):
    # the mirrored terms of the stencil are summed in one order on both sides
    # of the diagonal, so an exactly Hermitian plus or minus slice gives an
    # exactly Hermitian result, with no conjugate-transpose pass
    p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=n)
    rng = np.random.default_rng(73 + n)
    rhs = decoupled_rhs(KINDS, p)
    for t in (0.0, 0.4, 2.9):
        got = rhs(t, _random_stack(KINDS, n, rng))
        for slice_ in got[:2]:
            assert np.array_equal(slice_, slice_.conj().T)


@pytest.mark.parametrize("shape", [(2, 7, 7), (3, 8, 8)])
def test_bind_rejects_arrays_not_of_the_generators_shape(shape):
    # y, out and work of one shape, but not that of the stack the generator
    # was made for: rejected at bind time, before a stage's first product
    # could fail or read past a slice
    p = ModelParams(omega=0.9, coupling=0.21, gamma=0.31, n_trunc=7)
    rhs = decoupled_rhs(["plus", "minus", "cross"], p)
    y = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError, match="C-contiguous complex"):
        rhs.bind(rhs.generator(0.4), y, np.empty_like(y), np.empty_like(y))
    with pytest.raises(ValueError, match="C-contiguous complex"):
        rhs(0.4, y)
