import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import jcdamp.cli as cli
import jcdamp.oracle as oracle
from jcdamp.cli import ConfigError, load_config, main
from jcdamp.fock import number_operator, tail_weight
from jcdamp.model import CoupledRHS
from reference import lab_frame_rhs, rk4_states


BASE_DOC = {
    "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 24},
    "initial": {"coherent_alpha0": [1.0, 0.0], "atom": "up"},
    "grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": 500},
    "outputs": ["trajectory"],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_round_trip(tmp_path):
    doc = dict(BASE_DOC)
    path = write_config(tmp_path, doc)
    cfg = load_config(path)
    assert cfg.params.n_trunc == 24
    assert cfg.coherent_alpha0 == 1.0
    assert cfg.grid.n_steps == 500
    assert cfg.outputs == ["trajectory"]
    # defaults are materialized deterministically
    assert cfg.store_every == 5
    assert cfg.picture == "schrodinger"


def test_unknown_key_rejected_with_field_name(tmp_path):
    doc = dict(BASE_DOC)
    doc["params"] = dict(doc["params"], detuning=0.5)
    with pytest.raises(ConfigError, match="config.params.detuning"):
        load_config(write_config(tmp_path, doc))


def test_out_of_range_value_rejected(tmp_path):
    doc = dict(BASE_DOC)
    doc["params"] = dict(doc["params"], gamma=-0.5)
    with pytest.raises(ConfigError, match="gamma"):
        load_config(write_config(tmp_path, doc))
    doc = dict(BASE_DOC)
    doc["grid"] = {"t_start": 0.0, "t_end": 0.0, "n_steps": 10}
    with pytest.raises(ConfigError, match="t_end"):
        load_config(write_config(tmp_path, doc))
    doc = dict(BASE_DOC)
    doc["outputs"] = ["spectra"]
    with pytest.raises(ConfigError, match="spectra"):
        load_config(write_config(tmp_path, doc))


WIGNER = {"re_min": -1.0, "re_max": 1.0, "n_re": 5, "im_min": -1.0, "im_max": 1.0,
          "n_im": 5, "times": [1.0]}


@pytest.mark.parametrize("field, change", [
    ("config.wigner.times", {"wigner": dict(WIGNER, times=1.0)}),
    ("config.compare.sample_times", {"compare": {"sample_times": 1.0}}),
    ("config.snapshot_times", {"snapshot_times": 1.0}),
    ("config.initial.matrix_file", {"initial": {"matrix_file": 3}}),
    ("config.wigner.n_re", {"wigner": dict(WIGNER, n_re=1)}),
    ("config.wigner.times", {"wigner": dict(WIGNER, times=[-0.5])}),
    ("config.snapshot_times", {"snapshot_times": [0.003]}),
    ("config.store_every", {"store_every": True}),
    ("config.compare.doubled_n_trunc", {"compare": {"doubled_n_trunc": 30}}),
    ("config.wigner.times", {"wigner": dict(WIGNER, times=[0.003])}),  # off the grid
    ("config.wigner.times", {"wigner": dict(WIGNER, times=[2.5])}),  # after t_end
    ("config.params.omega", {"params": dict(BASE_DOC["params"], omega=10 ** 400)}),
    ("config.compare.sample_times", {"compare": {"sample_times": []}}),  # compares nothing
    ("config.wigner.times", {"wigner": dict(WIGNER, times=[])}),  # writes nothing
])
def test_malformed_config_exits_2_naming_field(tmp_path, capsys, field, change):
    path = write_config(tmp_path, dict(BASE_DOC, **change))
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert field in capsys.readouterr().err


def test_default_doubled_truncation_is_checked_by_compare_only(tmp_path, capsys):
    # n_trunc 5 makes the default doubled_n_trunc 5, below the doubled route's 6
    doc = dict(BASE_DOC, outputs=["trajectory", "compare"])
    doc["params"] = dict(BASE_DOC["params"], coupling=0.0, n_trunc=5)
    doc["initial"] = {"coherent_alpha0": [0.0, 0.0], "atom": "up"}
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "sim"), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", path, "--out", str(tmp_path / "cmp"), "--quiet"]) == 2
    assert "config.compare.doubled_n_trunc" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_main_exit_code_on_parse_failure(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["unknown_top"] = 1
    path = write_config(tmp_path, doc)
    code = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert code == 2
    assert "unknown_top" in capsys.readouterr().err


def test_main_exit_code_on_numerical_failure(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["params"] = {"omega": 1.0, "coupling": 0.0, "gamma": 0.1, "n_trunc": 10}
    doc["initial"] = {"coherent_alpha0": [2.2, 0.0], "atom": "down"}
    path = write_config(tmp_path, doc)
    code = main(["simulate", "--config", path, "--out", str(tmp_path)])
    assert code == 3
    assert "TailOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("limit, cause", [
    (None, "generator norm bound"),  # caught before integrating
    (math.inf, "purity"),  # with both step bounds lifted, caught at a stored step
])
def test_main_exit_code_on_rk4_blow_up(tmp_path, capsys, monkeypatch, limit, cause):
    # simulate integrates in the rotating frame, whose generator is the coupling
    # c (a + a+) and the damping: at c = 1, h = 0.1 over N = 60 levels it lies
    # outside RK4's stability region although h * c passes the step heuristic
    doc = dict(BASE_DOC)
    doc["params"] = {"omega": 1.0, "coupling": 1.0, "gamma": 0.0, "n_trunc": 60}
    doc["initial"] = {"coherent_alpha0": [2.0, 0.0], "atom": "up"}
    doc["grid"] = {"t_start": 0.0, "t_end": 10.0, "n_steps": 100}
    if limit is not None:
        monkeypatch.setattr(oracle, "STEP_SAFETY", limit)
        monkeypatch.setattr(oracle, "STABILITY_LIMIT", limit)
        # h = 0.5 over N = 20 levels: the purity of the first stored step exceeds 1
        doc["params"]["n_trunc"] = 20
        doc["initial"] = {"coherent_alpha0": [1.0, 0.0], "atom": "up"}
        doc["grid"] = {"t_start": 0.0, "t_end": 20.0, "n_steps": 40}
    path = write_config(tmp_path, doc)
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "unstable" in err and cause in err


@pytest.mark.parametrize("verb", ["simulate", "solve", "wigner", "compare"])
@pytest.mark.parametrize("alpha0", [[30.0, 0.0], [1e150, 0.0], [1e200, 0.0]],
                         ids=["30", "1e150", "1e200"])
def test_coherent_amplitude_with_no_weight_below_n_trunc_exits_2(tmp_path, capsys, verb, alpha0):
    # at N=12 the kept weight underflows (30), the amplitudes overflow (1e150)
    # or |alpha0|^2 does (1e200); each had given NaN rows, or a traceback
    doc = dict(BASE_DOC, outputs=["trajectory", "compare"], wigner=WIGNER)
    doc["params"] = dict(BASE_DOC["params"], n_trunc=12)
    doc["initial"] = {"coherent_alpha0": alpha0, "atom": "up"}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code = main([verb, "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config.initial.coherent_alpha0" in err and "Traceback" not in err
    assert not out.exists()  # nothing written, so no NaN either


def test_compare_step_bound_is_the_oracles(tmp_path, capsys, monkeypatch):
    # the oracle runs first and holds h at the full truncation, so a step over
    # its bound stops compare before any doubled-space step
    from jcdamp import doubled

    calls = []
    real = doubled.expm_multiply

    def counted(plan, v):
        calls.append(1)
        return real(plan, v)

    monkeypatch.setattr(doubled, "expm_multiply", counted)
    doc = dict(BASE_DOC, outputs=["compare"], compare={"doubled_n_trunc": 12})
    doc["grid"] = {"t_start": 0.0, "t_end": 2.0, "n_steps": 10}
    path = write_config(tmp_path, doc)
    cfg = load_config(path)
    with pytest.raises(oracle.StepTooLarge) as expected:
        oracle.require_step(cfg.params, cfg.grid.step)
    assert main(["compare", "--config", path, "--out", str(tmp_path / "cmp"), "--quiet"]) == 3
    assert f"StepTooLarge: {expected.value}" in capsys.readouterr().err
    assert calls == []


def test_simulate_exits_3_on_the_step_heuristic(tmp_path, capsys):
    # one step of h = 0.5 over N = 12 levels: h * max(1, c, g N) = 1.2 breaks
    # the heuristic h * max(1, c, g N) <= 0.1 before the stability bound is read
    doc = dict(BASE_DOC, params=dict(BASE_DOC["params"], n_trunc=12),
               grid={"t_start": 0.0, "t_end": 0.5, "n_steps": 1})
    path = write_config(tmp_path, doc)
    cfg = load_config(path)
    with pytest.raises(oracle.StepTooLarge, match="violates") as expected:
        oracle.require_step(cfg.params, cfg.grid.step)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert f"StepTooLarge: {expected.value}" in capsys.readouterr().err


@pytest.mark.parametrize("verb, failure", [
    ("simulate", "StepTooLarge: step 1.000e-02 violates"),
    ("solve", "ClosedFormOverflow: plus closed form overflows at t=0.17\n"),
    ("wigner", "StepTooLarge: step 1.000e-02 violates"),
    ("compare", "StepTooLarge: step 1.000e-02 violates"),
], ids=["simulate", "solve", "wigner", "compare"])
def test_omega_near_the_float_range_exits_3_without_a_warning(tmp_path, capsys, verb, failure):
    # at w = 1e308 every step breaks h w <= 0.1, and the closed forms' phase
    # w t (N - 1) leaves the float range at t = 0.17 (N = 12, h = 0.01): solve
    # had exited 0 with NaN rows, and compare had warned from the doubled
    # generators it built before the oracle held the step
    doc = dict(BASE_DOC, outputs=["trajectory", "compare"],
               wigner=dict(WIGNER, n_re=3, n_im=3, times=[0.0, 0.5]))
    doc["params"] = dict(BASE_DOC["params"], omega=1e308, n_trunc=12)
    doc["initial"] = {"coherent_alpha0": [0.5, 0.0], "atom": "up"}
    doc["grid"] = {"t_start": 0.0, "t_end": 0.5, "n_steps": 50}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy or scipy RuntimeWarning fails the test
        code = main([verb, "--config", write_config(tmp_path, doc), "--out",
                     str(tmp_path / "out"), "--quiet"])
    assert code == 3
    assert failure in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# N = 12 over 50 steps to t = 0.5, a coherent 0.5 with the atom up
_SMALL_DOC = dict(BASE_DOC, params=dict(BASE_DOC["params"], n_trunc=12),
                  initial={"coherent_alpha0": [0.5, 0.0], "atom": "up"},
                  grid={"t_start": 0.0, "t_end": 0.5, "n_steps": 50},
                  wigner=dict(WIGNER, n_re=3, n_im=3, times=[0.0, 0.5]))


@pytest.mark.parametrize("verb, change, failure", [
    # one step of h = 0.5 breaks the step heuristic
    ("simulate", {"grid": {"t_start": 0.0, "t_end": 0.5, "n_steps": 1}},
     "StepTooLarge: step 5.000e-01 violates"),
    ("wigner", {"grid": {"t_start": 0.0, "t_end": 0.5, "n_steps": 1}},
     "StepTooLarge: step 5.000e-01 violates"),
    # the closed forms' phase w t (N - 1) leaves the float range at t = 0.17
    ("solve", {"params": dict(_SMALL_DOC["params"], omega=1e308)},
     "ClosedFormOverflow: plus closed form overflows at t=0.17\n"),
    # the cross run passes; the plus closed form crosses the tail limit at the
    # second Wigner time, after the first time's Gaussian grids are made
    ("wigner", {"params": dict(_SMALL_DOC["params"], coupling=0.6),
                "initial": {"coherent_alpha0": [0.3, 0.0], "atom": "up"},
                "grid": {"t_start": 0.0, "t_end": 1.3, "n_steps": 100},
                "wigner": dict(_SMALL_DOC["wigner"], times=[0.0, 1.3])},
     "TailOverflow: plus closed-form tail weight 1.336e-06 > 1e-06 at dt=1.3\n"),
], ids=["simulate", "wigner", "solve", "wigner_late_closed_form"])
def test_an_exit_3_creates_no_out(tmp_path, capsys, verb, change, failure):
    # every verb creates --out only after its last check that can fail
    out = tmp_path / "out"
    code = main([verb, "--config", write_config(tmp_path, dict(_SMALL_DOC, **change)),
                 "--out", str(out), "--quiet"])
    assert code == 3
    assert failure in capsys.readouterr().err
    assert not out.exists()


def test_empty_outputs_produce_nothing(tmp_path):
    doc = dict(BASE_DOC, outputs=[])
    path = write_config(tmp_path, doc)
    out = tmp_path / "empty"
    code = main(["simulate", "--config", path, "--out", str(out), "--quiet"])
    assert code == 0
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("verb, outputs", [
    pytest.param("simulate", [], id="simulate"),
    pytest.param("solve", [], id="solve"),
    pytest.param("wigner", [], id="wigner"),
    pytest.param("compare", [], id="compare"),
    # simulate writes only for trajectory or components
    pytest.param("simulate", ["wigner"], id="simulate-wigner_only"),
])
def test_empty_outputs_exit_0_without_creating_out(tmp_path, verb, outputs):
    # no wigner section either: nothing to write stops every verb before it reads one
    path = write_config(tmp_path, dict(BASE_DOC, outputs=outputs))
    out = tmp_path / "out"
    assert main([verb, "--config", path, "--out", str(out), "--quiet"]) == 0
    assert not out.exists()


@pytest.mark.parametrize("verb, times", [("solve", [0.0]), ("wigner", [0.0])],
                         ids=["solve", "wigner_at_t_start"])
def test_closed_forms_exit_3_on_an_over_tail_initial_state(tmp_path, capsys, verb, times):
    # |alpha0|^2 = 16 photons in 12 levels; wigner at t_start runs no integration
    doc = dict(BASE_DOC, outputs=["trajectory"], wigner=dict(WIGNER, times=times))
    doc["params"] = dict(BASE_DOC["params"], n_trunc=12)
    doc["initial"] = {"coherent_alpha0": [4.0, 0.0], "atom": "up"}
    path = write_config(tmp_path, doc)
    assert main([verb, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "TailOverflow" in err and "plus closed-form tail weight" in err


def test_readme_example_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    cli.RunConfig(json.loads(blocks[0]))  # raises ConfigError on a drifted field


def test_simulate_photon_decay_column(tmp_path):
    doc = dict(BASE_DOC)
    doc["params"] = {"omega": 1.0, "coupling": 0.0, "gamma": 0.25, "n_trunc": 24}
    doc["grid"] = {"t_start": 0.0, "t_end": 4.0, "n_steps": 800}
    path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    rows = (out / "observables.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header == ["t", "tr_rho11", "n_expect", "sigma3", "purity", "tail_weight"]
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    t, n_col = data[:, 0], data[:, 2]
    fit = n_col[0] * np.exp(-0.25 * t)
    assert np.max(np.abs(n_col - fit)) < 1e-6


@pytest.mark.parametrize("verb, written", [
    ("simulate", ["observables.csv", "component_plus.csv", "component_minus.csv",
                  "component_cross.csv", "snapshot_000.json"]),
    ("solve", ["solve.csv"]),
    ("wigner", ["wigner_cross_herm_00.csv", "wigner_cross_anti_01.csv"]),
    ("compare", ["compare_report.json"]),
], ids=["simulate", "solve", "wigner", "compare"])
def test_deterministic_bytes(tmp_path, verb, written):
    # a rerun writes the same files, byte for byte
    doc = dict(BASE_DOC, outputs=["trajectory", "components"], snapshot_times=[1.0],
               wigner=dict(WIGNER, n_re=3, n_im=3, times=[0.0, 1.0]))
    path = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([verb, "--config", path, "--out", str(out), "--quiet"]) == 0
    names = sorted(f.name for f in out1.iterdir())
    assert set(written) <= set(names)
    assert names == sorted(f.name for f in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_snapshot_bytes_are_those_of_json_dump(tmp_path):
    state = np.random.default_rng(4).normal(size=(5, 5, 2)) @ np.array([1.0, 1j])
    state[0, 1] = complex(-0.0, 1e-300)
    payload = {"t": 0.1 + 0.2, "dim": 5,
               "entries": [[[z.real, z.imag] for z in row] for row in state]}
    want = tmp_path / "json_dump.json"
    with open(want, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    got = tmp_path / "snapshot.json"
    cli._write_snapshot(str(got), 0.1 + 0.2, state)
    assert got.read_bytes() == want.read_bytes()


def test_solve_columns_and_long_time_limit(tmp_path):
    # weak drive so the sustained center at g t = 20 sits within 1e-6 of
    # its infinite-time limit (the memory of alpha0 decays as e^{-g t / 2})
    doc = {
        "params": {"omega": 1.0, "coupling": 0.01, "gamma": 1.0, "n_trunc": 16},
        "initial": {"coherent_alpha0": [0.01, 0.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 20.0, "n_steps": 2000},
        "outputs": ["trajectory"],
        "store_every": 2000,
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "solve"
    assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
    rows = (out / "solve.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[0] == "t"
    assert "alpha_plus_re" in header and "mu_sinh_im" in header
    assert "kernel_int" in header and "purity_minus" in header
    first = dict(zip(header, [float(x) for x in rows[1].split(",")]))
    assert first["t"] == 0.0
    assert first["alpha_plus_re"] == pytest.approx(0.01)
    assert first["trace_plus"] == pytest.approx(1.0, abs=1e-9)
    last = dict(zip(header, [float(x) for x in rows[-1].split(",")]))
    assert last["t"] == pytest.approx(20.0)
    limit = -2j * 0.01 / (2j * 1.0 + 1.0)
    got = complex(last["alpha_plus_re"], last["alpha_plus_im"])
    assert abs(got - limit) < 1e-6


def test_solve_displacement_column_matches_quadrature(tmp_path):
    from jcdamp.quadrature import simpson_adaptive
    doc = dict(BASE_DOC)
    doc["store_every"] = 250
    path = write_config(tmp_path, doc)
    out = tmp_path / "solve2"
    assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
    rows = (out / "solve.csv").read_text().splitlines()
    header = rows[0].split(",")
    row = dict(zip(header, [float(x) for x in rows[2].split(",")]))
    t = row["t"]
    quad = -1j * 0.1 * simpson_adaptive(
        lambda s: np.exp((1j + 0.1) * s), 0.0, t, tol=1e-12)
    got = complex(row["disp_plus_re"], row["disp_plus_im"])
    assert abs(got - complex(quad)) < 1e-10


def test_wigner_outputs_agree(tmp_path):
    doc = dict(BASE_DOC)
    # headroom: grid displacements up to |2 + 2i| need levels well below
    # the truncation boundary for the operator route to stay faithful,
    # and the box must cover the state support for the normalization sum
    doc["params"] = dict(doc["params"], n_trunc=40)
    doc["initial"] = {"coherent_alpha0": [0.3, 0.0], "atom": "up"}
    doc["outputs"] = ["wigner"]
    doc["wigner"] = {"re_min": -2.0, "re_max": 2.0, "n_re": 15,
                     "im_min": -2.0, "im_max": 2.0, "n_im": 15,
                     "times": [0.0, 1.5]}
    path = write_config(tmp_path, doc)
    out = tmp_path / "wig"
    assert main(["wigner", "--config", path, "--out", str(out), "--quiet"]) == 0

    def load(name):
        rows = (out / name).read_text().splitlines()[1:]
        return np.array([[float(x) for x in r.split(",")] for r in rows])

    for tag in ("plus", "minus"):
        for idx in ("00", "01"):
            closed = load(f"wigner_{tag}_closed_{idx}.csv")
            sampled = load(f"wigner_{tag}_grid_{idx}.csv")
            assert np.max(np.abs(closed[:, 2] - sampled[:, 2])) < 1e-6
            doc_json = json.loads((out / f"wigner_{tag}_closed_{idx}.json").read_text())
            assert doc_json["normalization"] == pytest.approx(1.0, abs=0.01)
    # t = 0 grid peaks at the initial coherent center with value 2
    closed0 = load("wigner_plus_closed_00.csv")
    peak = closed0[np.argmax(closed0[:, 2])]
    assert abs(complex(peak[0], peak[1]) - 0.3) < 0.3  # nearest grid point
    assert peak[2] <= 2.0 + 1e-12 and peak[2] > 2.0 * math.exp(-2 * 0.15 ** 2)
    assert (out / "wigner_cross_herm_00.csv").exists()
    assert (out / "wigner_cross_anti_01.csv").exists()


def test_compare_report_contract(tmp_path):
    doc = {
        "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 24},
        "initial": {"coherent_alpha0": [1.0, 0.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": 500},
        "outputs": ["compare"],
        "compare": {"doubled_n_trunc": 20},
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "cmp"
    code = main(["compare", "--config", path, "--out", str(out), "--quiet"])
    assert code == 0
    report = json.loads((out / "compare_report.json").read_text())
    assert report["overall_pass"] is True
    for kind in ("plus", "minus", "cross"):
        entry = report["components"][kind]
        assert "analytic_max_dev" in entry  # present even when loose
        assert entry["doubled_max_dev"] <= 1e-6
    assert report["components"]["plus"]["analytic_tight"] is True
    assert report["components"]["cross"]["analytic_tight"] is False
    assert report["components"]["plus"]["analytic_max_dev"] <= 1e-6


def test_compare_free_evolution_all_routes_agree(tmp_path):
    # no damping and no coupling: every route is pure rotation and the
    # deviations collapse to roundoff
    doc = {
        "params": {"omega": 1.0, "coupling": 0.0, "gamma": 0.0, "n_trunc": 20},
        "initial": {"coherent_alpha0": [0.8, 0.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": 400},
        "outputs": ["compare"],
        "compare": {"doubled_n_trunc": 16},
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "free"
    assert main(["compare", "--config", path, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "compare_report.json").read_text())
    for kind in ("plus", "minus", "cross"):
        entry = report["components"][kind]
        assert entry["analytic_max_dev"] <= 1e-10
        assert entry["doubled_max_dev"] <= 1e-10


def test_every_route_returns_lab_frame_states():
    # the component run, the split joint run, the doubled run and the closed
    # form agree at one sample step as returned: the test converts no frame
    from jcdamp.doubled import (anticommutator_generator_factory, commutator_generator_factory,
                                devectorize, evolve_vectorized, stacked, vectorize)
    from jcdamp.fock import TAIL_LEVELS, ModelParams, coherent_state
    from jcdamp.model import ATOM_UP, split_components
    from jcdamp.solution import evolve_plus_minus

    n, k = 12, 200
    p = ModelParams(omega=1.0, coupling=0.1, gamma=0.2, n_trunc=n)
    grid = oracle.TimeGrid(0.0, 3.0, 300)
    v = coherent_state(0.5, n).vec
    rho0 = np.kron(np.outer(ATOM_UP, ATOM_UP.conj()), np.outer(v, v.conj()))
    comps = cli._components(rho0)
    component = oracle.integrate_component(comps, p, grid, store_steps=[k])
    joint = split_components(oracle.integrate_joint(rho0, p, grid, store_steps=[k]).states[k])
    gens = [commutator_generator_factory(p, 1), commutator_generator_factory(p, -1),
            anticommutator_generator_factory(p)]  # plus, minus, cross: the order of comps
    doubled = evolve_vectorized(stacked(gens),
                                np.concatenate([vectorize(op) for op in comps.values()]),
                                grid, store_steps=[k])[k]
    inner = n - TAIL_LEVELS
    for block, kind in enumerate(comps):
        state = component[kind].states[k]
        assert np.max(np.abs(state - getattr(joint, kind))) < 1e-7, kind
        own = devectorize(doubled.reshape(len(comps), -1)[block])
        assert np.max(np.abs(own[:inner, :inner] - state[:inner, :inner])) <= cli.DOUBLED_TOLERANCE
    closed = evolve_plus_minus(comps["plus"], k * grid.step, p, 1)
    assert np.max(np.abs(closed - component["plus"].states[k])) <= cli.PM_TOLERANCE


def _corrupt_plus_minus_closed_form(monkeypatch):
    # an error of 1e-3 in every plus/minus closed-form state fails compare's tight check
    real = cli.evolve_plus_minus

    def corrupted(rho0, t, params, sign):
        out = real(rho0, t, params, sign).copy()
        out[0, 0] += 1e-3
        return out

    monkeypatch.setattr(cli, "evolve_plus_minus", corrupted)


def test_compare_exit_code_when_tight_comparison_fails(tmp_path, monkeypatch):
    doc = {
        "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 20},
        "initial": {"coherent_alpha0": [0.8, 0.0], "atom": "up"},
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 250},
        "outputs": ["compare"],
        "compare": {"doubled_n_trunc": 16},
    }
    path = write_config(tmp_path, doc)
    _corrupt_plus_minus_closed_form(monkeypatch)
    code = main(["compare", "--config", path, "--out", str(tmp_path / "bad"), "--quiet"])
    assert code == 4


def test_matrix_file_initial_state(tmp_path):
    n = 12
    from jcdamp.fock import coherent_state
    from jcdamp.model import ATOM_DOWN
    v = coherent_state(0.5, n).vec
    rho = np.kron(np.outer(ATOM_DOWN, ATOM_DOWN.conj()), np.outer(v, v.conj()))
    mat_doc = {"entries": [[[z.real, z.imag] for z in row] for row in rho]}
    (tmp_path / "state.json").write_text(json.dumps(mat_doc))
    doc = {
        "params": {"omega": 1.0, "coupling": 0.05, "gamma": 0.2, "n_trunc": n},
        "initial": {"matrix_file": "state.json"},
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 200},
        "outputs": ["trajectory"],
    }
    path = write_config(tmp_path, doc)
    out = tmp_path / "mat"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    rows = (out / "observables.csv").read_text().splitlines()
    first = [float(x) for x in rows[1].split(",")]
    assert first[1] == pytest.approx(0.0, abs=1e-12)  # down-state: tr_rho11 = 0


def test_matrix_file_rejects_bad_state(tmp_path):
    n = 8
    bad = np.eye(2 * n, dtype=complex)  # trace != 1
    mat_doc = {"entries": [[[z.real, z.imag] for z in row] for row in bad]}
    (tmp_path / "bad.json").write_text(json.dumps(mat_doc))
    doc = {
        "params": {"omega": 1.0, "coupling": 0.05, "gamma": 0.2, "n_trunc": n},
        "initial": {"matrix_file": "bad.json"},
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 200},
        "outputs": ["trajectory"],
    }
    path = write_config(tmp_path, doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2


def _near_pure_state(n, case):
    # a pure coherent state, off by what check_joint_density accepts
    from jcdamp.fock import coherent_state
    from jcdamp.model import ATOM_UP
    v = coherent_state(0.5, n).vec
    rho = np.kron(np.outer(ATOM_UP, ATOM_UP.conj()), np.outer(v, v.conj()))
    if case == "hermiticity":
        for i, j in ((0, 1), (n, n + 1), (0, n + 1), (n, 1)):
            rho[i, j] += 0.9e-8
        return rho
    return rho * (1.0 + 5e-9)


@pytest.mark.parametrize("case, verb", [("hermiticity", "wigner"), ("trace", "simulate")])
def test_matrix_file_accepted_state_is_symmetrized_and_normalized(tmp_path, case, verb):
    # both states pass the load check; the wigner route needs an exactly
    # Hermitian state, the oracle a purity at most 1 + 1e-9
    n = 12
    rho = _near_pure_state(n, case)
    (tmp_path / "state.json").write_text(json.dumps(
        {"entries": [[[z.real, z.imag] for z in row] for row in rho]}))
    doc = _shifted_doc(0.0, initial={"matrix_file": "state.json"},
                       outputs=["trajectory", "wigner"],
                       wigner=dict(WIGNER, n_re=3, n_im=3, times=[0.5]))
    doc["params"] = dict(doc["params"], n_trunc=n)
    path = write_config(tmp_path, doc)
    loaded = load_config(path).initial_joint()
    assert np.array_equal(loaded, loaded.conj().T)
    assert abs(np.trace(loaded) - 1.0) <= 1e-15
    assert main([verb, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_solve_and_simulate_write_the_same_times(tmp_path):
    # the last stored step (310) is not a multiple of store_every
    doc = dict(BASE_DOC)
    doc["params"] = dict(doc["params"], n_trunc=16)
    doc["grid"] = {"t_start": 0.0, "t_end": 1.2, "n_steps": 310}
    doc["store_every"] = 25
    doc["outputs"] = ["trajectory", "components"]
    path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    for verb in ("simulate", "solve"):
        assert main([verb, "--config", path, "--out", str(out), "--quiet"]) == 0

    def time_strings(name):
        return [row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]]

    solve_times = time_strings("solve.csv")
    assert len(solve_times) == 14
    for name in ("observables.csv", "component_plus.csv", "component_minus.csv"):
        assert time_strings(name) == solve_times


def test_solve_computes_only_the_times_it_writes(tmp_path):
    # a 4e6-step grid, of which solve writes the 101 steps simulate keeps by
    # default: every grid time and its step index would take 64 MB, and at
    # about 1e9 steps 16 GB, for a verb that takes no steps
    import tracemalloc
    doc = dict(BASE_DOC, grid={"t_start": 0.5, "t_end": 2.5, "n_steps": 4_000_000})
    path = write_config(tmp_path, doc)
    out = tmp_path / "solve"
    tracemalloc.start()
    try:
        assert main(["solve", "--config", path, "--out", str(out), "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    times = [float(row.split(",")[0]) for row in (out / "solve.csv").read_text().splitlines()[1:]]
    assert times == [0.5 + 5e-7 * k for k in range(0, 4_000_001, 40_000)]


# g t = 12: the drive's displacement amplitude grows like e^{g t / 2} to
# about 20, far beyond N = 8 levels, while the states stay near the vacuum
LONG_GAMMA_T = dict(BASE_DOC, params={"omega": 1.0, "coupling": 0.1, "gamma": 2.0, "n_trunc": 8},
                    initial={"coherent_alpha0": [0.05, 0.0], "atom": "up"},
                    grid={"t_start": 0.0, "t_end": 6.0, "n_steps": 960},
                    outputs=["components", "compare"])


def test_compare_passes_at_long_gamma_t(tmp_path):
    path = write_config(tmp_path, LONG_GAMMA_T)
    assert main(["compare", "--config", path, "--out", str(tmp_path / "cmp"), "--quiet"]) == 0


def test_solve_matches_simulate_at_long_gamma_t(tmp_path):
    path = write_config(tmp_path, LONG_GAMMA_T)
    out = tmp_path / "run"
    for verb in ("simulate", "solve"):
        assert main([verb, "--config", path, "--out", str(out), "--quiet"]) == 0
    header = (out / "solve.csv").read_text().splitlines()[0].split(",")
    solved = _load_csv(out / "solve.csv")
    for kind in ("plus", "minus"):
        number = _load_csv(out / f"component_{kind}.csv")[:, 3]  # number_re
        assert np.max(np.abs(solved[:, header.index(f"number_{kind}")] - number)) < 1e-9


def test_solve_exits_3_where_the_closed_form_scalars_overflow(tmp_path, capsys):
    # at g t = 750 the kernel integral, and by g t = 1500 e^{g t / 2}, leave the float range
    doc = dict(BASE_DOC, params={"omega": 1.0, "coupling": 0.1, "gamma": 1.0, "n_trunc": 8},
               initial={"coherent_alpha0": [0.05, 0.0], "atom": "up"},
               grid={"t_start": 0.0, "t_end": 1500.0, "n_steps": 10})
    path = write_config(tmp_path, doc)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 3
    assert "ClosedFormOverflow: kernel_double_integral overflows at t=750" in capsys.readouterr().err


def _shifted_doc(t_start, **extra):
    # the benchmark's smoke physics on a grid that starts at t_start
    doc = {
        "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 14},
        "initial": {"coherent_alpha0": [0.5, 0.0], "atom": "up"},
        "grid": {"t_start": t_start, "t_end": t_start + 1.0, "n_steps": 100},
    }
    doc.update(extra)
    return doc


def test_compare_at_nonzero_t_start_matches_t_start_zero(tmp_path):
    reports = {}
    for t_start in (0.0, 0.7):
        doc = _shifted_doc(t_start, outputs=["compare"], compare={"doubled_n_trunc": 12})
        path = write_config(tmp_path, doc, f"compare_{t_start}.json")
        out = tmp_path / f"compare_{t_start}"
        assert main(["compare", "--config", path, "--out", str(out), "--quiet"]) == 0
        reports[t_start] = json.loads((out / "compare_report.json").read_text())
    for kind in ("plus", "minus", "cross"):
        entry, ref = reports[0.7]["components"][kind], reports[0.0]["components"][kind]
        for key in ("analytic_max_dev", "analytic_mean_dev", "doubled_max_dev",
                    "oracle_trace_drift"):
            assert abs(entry[key] - ref[key]) <= 1e-9, (kind, key)


@pytest.mark.parametrize("t_start", [0.0, 0.7])
def test_pictures_agree_in_observables_and_snapshots(tmp_path, t_start):
    # every output is frame-invariant or written in the lab frame, so picture
    # selects nothing and both values write the same bytes
    outs = {}
    for picture in ("schrodinger", "rotational"):
        doc = _shifted_doc(t_start, outputs=["trajectory", "components"], picture=picture,
                           store_every=25, snapshot_times=[t_start + 0.5, t_start + 1.0])
        path = write_config(tmp_path, doc, f"{picture}.json")
        outs[picture] = tmp_path / picture
        assert main(["simulate", "--config", path, "--out", str(outs[picture]), "--quiet"]) == 0
    names = sorted(p.name for p in outs["schrodinger"].iterdir())
    assert names == sorted(p.name for p in outs["rotational"].iterdir())
    assert len(names) == 6
    for name in names:
        assert (outs["schrodinger"] / name).read_bytes() == (outs["rotational"] / name).read_bytes()

    # and they agree with an independent lab-frame RK4 run, which the rotating
    # frame coincides with at t_start
    cfg = load_config(path)
    lab = rk4_states(lab_frame_rhs(cfg.params), cfg.initial_joint(), cfg.grid.step,
                     cfg.grid.n_steps)
    purity = [np.trace(lab[k] @ lab[k]).real for k in cfg.grid.stored_steps(cfg.store_every)]
    assert np.max(np.abs(_load_csv(outs["rotational"] / "observables.csv")[:, 4] - purity)) < 1e-9
    for k, step in enumerate((50, 100)):
        snap = json.loads((outs["rotational"] / f"snapshot_{k:03d}.json").read_text())
        assert snap["t"] == cfg.grid.t_start + cfg.grid.step * step
        entries = np.array(snap["entries"])
        assert np.max(np.abs(entries[..., 0] + 1j * entries[..., 1] - lab[step])) < 1e-6


@pytest.mark.parametrize("outputs", [["trajectory", "components"], ["components"]],
                         ids=["trajectory_components", "components_only"])
def test_simulate_integrates_the_joint_state_once(tmp_path, monkeypatch, outputs):
    # one rotating-frame joint run writes every file; the component rows are
    # split from its kept states, with no component run
    joint_calls, component_calls = [], []
    real_joint, real_component = cli.integrate_joint, cli.integrate_component

    def joint(*args, **kwargs):
        joint_calls.append(kwargs.get("store_steps"))
        return real_joint(*args, **kwargs)

    def component(*args, **kwargs):
        component_calls.append(list(args[0]))
        return real_component(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_joint", joint)
    monkeypatch.setattr(cli, "integrate_component", component)
    path = write_config(tmp_path, _shifted_doc(0.0, outputs=outputs))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert len(joint_calls) == 1 and component_calls == []
    assert (out / "observables.csv").exists() == ("trajectory" in outputs)

    # the rows of a direct component run over the same grid and stored steps
    cfg = load_config(path)
    n_op = number_operator(cfg.params.n_trunc)
    trajs = real_component(cli._components(cfg.initial_joint()), cfg.params, cfg.grid,
                           store_steps=cfg.grid.stored_steps(cfg.store_every))
    for kind, traj in trajs.items():
        ref = []
        for t, state in zip(traj.times, traj.states.values()):
            tr, num = np.trace(state), np.trace(n_op @ state)
            ref.append([t, tr.real, tr.imag, num.real, num.imag, abs(tail_weight(state))])
        got = _load_csv(out / f"component_{kind}.csv")
        assert got.shape == (101, 6)
        assert np.max(np.abs(got - np.array(ref))) <= 1e-12


def _load_csv(path):
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in row.split(",")] for row in rows])


def test_wigner_writes_closed_form_grids_for_coherent_input_only(tmp_path):
    # Fock |1> (x) |up>: its plus component is |1><1|, whose Wigner function is
    # -2 at the origin, where the coherent Gaussian would read +2
    n = 12
    fock_one = np.zeros(n)
    fock_one[1] = 1.0
    rho = np.kron(np.diag([1.0, 0.0]), np.outer(fock_one, fock_one)).astype(complex)
    (tmp_path / "fock.json").write_text(json.dumps(
        {"entries": [[[z.real, z.imag] for z in row] for row in rho]}))
    doc = _shifted_doc(0.0, initial={"matrix_file": "fock.json"}, outputs=["wigner"],
                       wigner=dict(WIGNER, n_re=3, n_im=3, times=[0.0, 1.0]))
    doc["params"] = dict(doc["params"], n_trunc=n)
    out = tmp_path / "wig"
    assert main(["wigner", "--config", write_config(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    assert not list(out.glob("*_closed_*"))
    for tag in ("plus", "minus"):
        for idx in ("00", "01"):
            assert (out / f"wigner_{tag}_grid_{idx}.json").exists()
    origin = _load_csv(out / "wigner_plus_grid_00.csv")[4]
    assert origin[:2].tolist() == [0.0, 0.0]
    assert origin[2] == pytest.approx(-2.0, abs=1e-12)


def test_wigner_integrates_the_cross_component_once(tmp_path, monkeypatch):
    from jcdamp.wigner import wigner_grid

    calls = []
    real = cli.integrate_component

    def counted(*args, **kwargs):
        calls.append(list(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_component", counted)
    box = {"re_min": -1.0, "re_max": 1.0, "n_re": 3, "im_min": -1.0, "im_max": 1.0, "n_im": 3}
    doc = _shifted_doc(0.0, outputs=["wigner"], wigner=dict(box, times=[0.0, 0.6, 1.2]))
    doc["grid"] = {"t_start": 0.0, "t_end": 1.2, "n_steps": 120}
    path = write_config(tmp_path, doc)
    out = tmp_path / "wig"
    assert main(["wigner", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert calls == [["cross"]]

    # the same grids from one integration per time, each ending at that time
    cfg = load_config(path)
    cross0 = cli._components(cfg.initial_joint())["cross"]
    for i, (t, k) in enumerate(((0.6, 60), (1.2, 120)), start=1):
        cross = real({"cross": cross0}, cfg.params, oracle.TimeGrid(0.0, t, k))["cross"].final
        for part, mat in (("herm", 0.5 * (cross + cross.conj().T)),
                          ("anti", (cross - cross.conj().T) / 2j)):
            ref = wigner_grid(mat, *box.values()).values.reshape(-1)
            got = _load_csv(out / f"wigner_cross_{part}_{i:02d}.csv")[:, 2]
            assert np.max(np.abs(got - ref)) <= 1e-12


def test_wigner_builds_each_grid_operator_once(tmp_path, monkeypatch):
    import jcdamp.wigner as wigner

    built = []
    real = wigner.wigner_operator

    def counted(alpha, n_trunc):
        built.append(alpha)
        return real(alpha, n_trunc)

    # every state of the run shares one operator per grid point: 4 x 3 points, 3 times
    monkeypatch.setattr(wigner, "wigner_operator", counted)
    box = {"re_min": -1.0, "re_max": 1.0, "n_re": 4, "im_min": -1.0, "im_max": 1.0, "n_im": 3}
    doc = _shifted_doc(0.0, outputs=["wigner"], wigner=dict(box, times=[0.0, 0.5, 1.0]))
    assert main(["wigner", "--config", write_config(tmp_path, doc), "--out",
                 str(tmp_path / "wig"), "--quiet"]) == 0
    assert len(built) == len(set(built)) == 4 * 3
    assert len(list((tmp_path / "wig").glob("wigner_cross_anti_*.csv"))) == 3


def test_wigner_reads_a_near_grid_time_as_that_grid_time(tmp_path):
    # h = 0.004, as in the README example: 0.6000000001 is within 1e-9 of step 150,
    # so every branch is drawn at the grid time 0.6 and the two times are one
    doc = _shifted_doc(0.0, outputs=["wigner"])
    doc["grid"] = {"t_start": 0.0, "t_end": 1.2, "n_steps": 300}
    written = {}
    for times in ([0.6], [0.6, 0.6000000001], [0.6000000001]):
        doc["wigner"] = dict(WIGNER, n_re=3, n_im=3, times=times)
        out = tmp_path / f"wig{len(written)}"
        assert main(["wigner", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--quiet"]) == 0
        written[str(times)] = {f.name: f.read_bytes() for f in out.iterdir()}
    exact = written.pop("[0.6]")
    assert "wigner_cross_herm_00.csv" in exact and len(exact) == 10
    for files in written.values():
        assert files == exact


def test_a_later_last_wigner_time_leaves_the_first_grids_unchanged(tmp_path):
    # the cross run stops at the last Wigner time, and one grid pass covers every
    # time: running on to a second time may not change a byte of the first's grids
    doc = _shifted_doc(0.0, outputs=["wigner"])
    written = []
    for times in ([0.5], [0.5, 1.0]):
        doc["wigner"] = dict(WIGNER, n_re=3, n_im=3, times=times)
        out = tmp_path / f"wig{len(written)}"
        assert main(["wigner", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--quiet"]) == 0
        written.append({f.name: f.read_bytes() for f in out.iterdir()})
    early, late = written
    assert len(early) == 10 and len(late) == 20
    assert early == {name: data for name, data in late.items() if "_00." in name}


def _count_component_rhs_calls(monkeypatch) -> list:
    # every call of a bound component stage, one right-hand side each, 4 per RK4 step
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
        return CoupledRHS(rhs.generator, bind)

    monkeypatch.setattr(oracle, "decoupled_rhs", counted)
    return calls


def test_wigner_stops_the_cross_run_at_its_last_time(tmp_path, monkeypatch):
    rhs_calls = _count_component_rhs_calls(monkeypatch)
    box = {"re_min": -1.0, "re_max": 1.0, "n_re": 3, "im_min": -1.0, "im_max": 1.0, "n_im": 3}
    doc = _shifted_doc(0.0, outputs=["wigner"], wigner=dict(box, times=[0.6]))
    doc["grid"] = {"t_start": 0.0, "t_end": 1.2, "n_steps": 120}
    out = tmp_path / "wig"
    assert main(["wigner", "--config", write_config(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    assert len(rhs_calls) == 4 * 60


def test_wigner_at_t_start_only_runs_no_integration(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("integrate_component called")

    monkeypatch.setattr(cli, "integrate_component", forbidden)
    doc = _shifted_doc(0.7, outputs=["wigner"], wigner=dict(WIGNER, times=[0.7]))
    path = write_config(tmp_path, doc)
    out = tmp_path / "wig0"
    assert main(["wigner", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert (out / "wigner_cross_herm_00.csv").exists()


def test_compare_keeps_only_its_sample_steps(tmp_path, monkeypatch):
    from jcdamp import doubled

    kept, evolved, counts = [], [], {"taylor_plan": 0, "expm_multiply": 0}
    real = cli.integrate_component
    real_evolve = cli.evolve_vectorized

    def recorded(*args, **kwargs):
        trajs = real(*args, **kwargs)
        kept.append({kind: len(traj.states) for kind, traj in trajs.items()})
        return trajs

    def recorded_evolve(*args, **kwargs):
        vectors = real_evolve(*args, **kwargs)
        evolved.append(list(vectors))
        return vectors

    def counted(name):
        original = getattr(doubled, name)

        def call(*args):
            counts[name] += 1
            return original(*args)
        return call

    monkeypatch.setattr(cli, "integrate_component", recorded)
    monkeypatch.setattr(cli, "evolve_vectorized", recorded_evolve)
    for name in counts:
        monkeypatch.setattr(doubled, name, counted(name))
    rhs_calls = _count_component_rhs_calls(monkeypatch)
    compare = {"doubled_n_trunc": 12, "sample_times": [0.3, 0.5]}
    doc = _shifted_doc(0.0, outputs=["compare"], compare=compare)
    path = write_config(tmp_path, doc)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", path, "--out", str(out), "--quiet"]) == 0
    # one call for all three components, each keeping exactly the samples and
    # taking 50 RK4 steps of 100, 4 right-hand sides each
    assert kept == [{"plus": 2, "minus": 2, "cross": 2}]
    assert len(rhs_calls) == 4 * 50
    # one doubled run and one Taylor plan for all three components, keeping
    # the samples (steps 30 and 50 of 100) and stepping no further than the last
    assert evolved == [[30, 50]]
    assert counts == {"taylor_plan": 1, "expm_multiply": 50}


def _files(out) -> dict:
    # relative path -> bytes of every file under out
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(Path(out).rglob("*")) if path.is_file()}


# argv: package parent, config path; runs simulate and compare into ./simulate, ./compare
_VERBS_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[1])
from jcdamp.cli import main
for verb in ("simulate", "compare"):
    assert main([verb, "--config", sys.argv[2], "--out", verb, "--quiet"]) == 0, verb
"""


def test_outputs_are_the_same_bytes_with_one_and_two_blas_threads(tmp_path):
    # the oracle's weighted sums and the products go through BLAS, which splits
    # work over threads from sizes this N = 40 run reaches; the bytes must not move
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    doc = dict(BASE_DOC, params=dict(BASE_DOC["params"], n_trunc=40),
               grid={"t_start": 0.0, "t_end": 0.3, "n_steps": 30},
               outputs=["trajectory", "components", "compare"], snapshot_times=[0.3],
               compare={"doubled_n_trunc": 30})
    config = write_config(tmp_path, doc)
    written = []
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads_{threads}"
        run_dir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _VERBS_SCRIPT, package_parent, config],
                              cwd=run_dir, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        written.append(_files(run_dir))
    assert len(written[0]) == 6  # observables, three components, a snapshot, the report
    assert written[0] == written[1]


# argv: package parent, then main's argv; waits for stdin to close before it runs
_CLOSED_STDOUT_SCRIPT = """\
import sys
sys.path.insert(0, sys.argv[1])
from jcdamp.cli import main
sys.stdin.read()
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("verb", ["simulate", "solve", "wigner", "compare"])
def test_a_closed_stdout_changes_neither_exit_code_nor_files(tmp_path, verb):
    # as `jcdamp VERB ... | true`: the reader is gone before the first progress
    # line, and the verb still exits 0, writes every file and leaves stderr empty
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    config = write_config(tmp_path, dict(_SMALL_DOC, outputs=["trajectory", "components"],
                                         snapshot_times=[0.5]))
    # stdout block-buffered, as into any pipe: a line the verb leaves in the
    # buffer would fail the exit flush, which exits 120
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-c", _CLOSED_STDOUT_SCRIPT, package_parent,
                             verb, "--config", config, "--out", "piped"],
                            cwd=tmp_path, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(b"", timeout=300)  # closing stdin lets the child run
    assert proc.returncode == 0, err.decode()
    assert err == b""
    assert main([verb, "--config", config, "--out", str(tmp_path / "quiet"), "--quiet"]) == 0
    written = _files(tmp_path / "quiet")
    assert written and _files(tmp_path / "piped") == written


@pytest.mark.parametrize("verb, code", [
    ("simulate", 0), ("solve", 0), ("wigner", 0), ("compare", 0), ("compare", 4),
], ids=["simulate", "solve", "wigner", "compare", "compare_exit_4"])
def test_quiet_prints_nothing_to_stdout(tmp_path, capsys, monkeypatch, verb, code):
    if code == 4:
        _corrupt_plus_minus_closed_form(monkeypatch)
    config = write_config(tmp_path, dict(_SMALL_DOC, outputs=["trajectory", "components"]))
    assert main([verb, "--config", config, "--out", str(tmp_path / "out"), "--quiet"]) == code
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "out").is_dir()


@pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["loud", "quiet"])
@pytest.mark.parametrize("change, code, reason", [
    ({"params": dict(_SMALL_DOC["params"], detuning=0.0)}, 2,
     "config error: unknown key config.params.detuning"),
    ({"grid": {"t_start": 0.0, "t_end": 0.5, "n_steps": 1}}, 3,
     "numerical failure: StepTooLarge: step 5.000e-01 violates"),
], ids=["exit_2", "exit_3"])
def test_exits_2_and_3_give_one_line_on_stderr_only(tmp_path, capsys, quiet, change, code,
                                                    reason):
    config = write_config(tmp_path, dict(_SMALL_DOC, **change))
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")] + quiet) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(reason) and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "under_a_file"])
@pytest.mark.parametrize("verb", ["simulate", "solve", "wigner", "compare"])
def test_an_out_that_cannot_be_created_exits_2(tmp_path, capsys, verb, out):
    # a regular file at --out, or on its path: found only after the whole
    # computation, yet the verb exits 2 with one stderr line naming --out,
    # prints nothing to stdout and creates nothing
    config = write_config(tmp_path, dict(_SMALL_DOC, outputs=["trajectory", "components"]))
    (tmp_path / "afile").write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    out = str(tmp_path / out)
    assert main([verb, "--config", config, "--out", out]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"config error: cannot create --out {out!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == "kept\n"


class _Stdout:
    """Stands in for sys.stdout and records, with each write, the files under ``out``."""

    def __init__(self, out):
        self.out = out
        self.writes = []

    def write(self, text):
        self.writes.append((text, sorted(_files(self.out)) if self.out.exists() else []))
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("verb", ["simulate", "solve", "wigner", "compare"])
def test_progress_lines_come_after_every_file(tmp_path, monkeypatch, verb):
    config = write_config(tmp_path, dict(_SMALL_DOC, outputs=["trajectory", "components"]))
    out = tmp_path / "out"
    stdout = _Stdout(out)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([verb, "--config", config, "--out", str(out)]) == 0
    monkeypatch.undo()
    files = sorted(_files(out))
    assert files and all(seen == files for _, seen in stdout.writes)
    text = "".join(written for written, _ in stdout.writes)
    if verb == "compare":  # one line per component in stack order, the report's figures
        report = json.loads((out / "compare_report.json").read_text())["components"]
        lines = [f"{kind}: analytic {report[kind]['analytic_max_dev']:.3e}"
                 f" (tight={report[kind]['analytic_tight']}),"
                 f" doubled-space {report[kind]['doubled_max_dev']:.3e},"
                 f" passed={report[kind]['passed']}" for kind in ("plus", "minus", "cross")]
    else:
        lines = {"simulate": ["wrote observables.csv (51 rows)", "wrote component_plus.csv",
                              "wrote component_minus.csv", "wrote component_cross.csv"],
                 "solve": ["wrote solve.csv (51 rows)"],
                 "wigner": ["wrote wigner grids for 2 grid times"]}[verb]
    assert text == "".join(line + "\n" for line in lines)
