"""Self-test of the benchmark, outside the package's test suite.

    python3 -m pytest -q perfbench/tests

The smoke runs show that every metric named in BENCHMARK.json is emitted,
with its unit, for every workload; the gate tests show that a corrupted
output is rejected and charged to the verb that wrote it.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 2 * len(gate.VERBS)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_workload_inputs_follow_the_seed():
    for name in workloads.NAMES:
        assert workloads.config(name, 3) == workloads.config(name, 3)
        assert workloads.config(name, 3) != workloads.config(name, 4)
        assert workloads.config(name, 0) == workloads.BASE[name]
        assert workloads.config(name, workloads.PHASE_STEPS) == workloads.BASE[name]


@pytest.fixture(scope="module")
def clean_pass(tmp_path_factory):
    """Outputs of one smoke pass of ``large_fock`` (every output kind)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from jcdamp.cli import main

    base = tmp_path_factory.mktemp("pass")
    cfg = base / "config.json"
    cfg.write_text(json.dumps(workloads.smoke_config("large_fock", 2)))
    out = base / "out"
    codes = {verb: main([verb, "--config", str(cfg), "--out", str(out), "--quiet"])
             for verb in gate.VERBS}
    assert codes == dict.fromkeys(gate.VERBS, 0)
    return str(out), gate.digest_dir(str(out)), gate.file_hashes(str(out))


def _copy(clean_pass, tmp_path):
    out = str(tmp_path / "out")
    shutil.copytree(clean_pass[0], out)
    return out


def _check(out, clean_pass, codes=None):
    codes = codes or dict.fromkeys(gate.VERBS, 0)
    failed, msgs, _, margin = gate.check_pass(out, codes, clean_pass[1])
    return failed, msgs, margin


def _edit_csv(path, column, fn, row=1):
    with open(path) as fh:
        lines = fh.read().splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[j] = fn(float(cells[j]))
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_gate_accepts_a_clean_pass(clean_pass, tmp_path):
    failed, msgs, margin = _check(_copy(clean_pass, tmp_path), clean_pass)
    assert failed == set(), msgs
    assert 0.0 < margin < 1.0


def test_reference_check_tolerates_rounding(clean_pass, tmp_path):
    out = _copy(clean_pass, tmp_path)
    _edit_csv(os.path.join(out, "solve.csv"), "number_plus", lambda x: f"{x * (1 + 1e-15):.15g}")
    failed, msgs, _ = _check(out, clean_pass)
    assert failed == set(), msgs


@pytest.mark.parametrize("corrupt, verb", [
    ("solve_number", "solve"),
    ("wigner_value", "wigner"),
    ("trailing_byte", "simulate"),
    ("overall_pass", "compare"),
    ("missing_file", "wigner"),
    ("exit_code", "solve"),
])
def test_gate_rejects_a_corrupted_output(clean_pass, tmp_path, corrupt, verb):
    out = _copy(clean_pass, tmp_path)
    codes = dict.fromkeys(gate.VERBS, 0)
    if corrupt == "solve_number":
        _edit_csv(os.path.join(out, "solve.csv"), "number_plus", lambda x: repr(x + 1e-6), row=2)
    elif corrupt == "wigner_value":
        name = next(n for n in sorted(os.listdir(out)) if n.startswith("wigner_plus_grid"))
        _edit_csv(os.path.join(out, name.replace(".json", ".csv")), "w", lambda x: repr(x + 1e-5))
    elif corrupt == "trailing_byte":
        with open(os.path.join(out, "observables.csv"), "a") as fh:
            fh.write("\n")
    elif corrupt == "overall_pass":
        path = os.path.join(out, "compare_report.json")
        with open(path) as fh:
            report = json.load(fh)
        report["overall_pass"] = False
        with open(path, "w") as fh:
            json.dump(report, fh)
    elif corrupt == "missing_file":
        os.remove(os.path.join(out, sorted(n for n in os.listdir(out)
                                           if n.startswith("wigner_"))[0]))
    elif corrupt == "exit_code":
        codes["solve"] = 3
    failed, msgs, _ = _check(out, clean_pass, codes)
    assert failed == {verb}, msgs


def test_repeat_check_wants_the_same_bytes(clean_pass, tmp_path):
    out = _copy(clean_pass, tmp_path)
    assert gate.check_repeat(out, "wigner", 0, clean_pass[2]) == []
    name = next(n for n in sorted(os.listdir(out)) if n.startswith("wigner_"))
    with open(os.path.join(out, name), "a") as fh:
        fh.write(" ")
    assert "differs" in " ".join(gate.check_repeat(out, "wigner", 0, clean_pass[2]))
    assert gate.check_repeat(out, "simulate", 0, clean_pass[2]) == []
    assert gate.check_repeat(out, "simulate", 3, clean_pass[2]) == ["exit code 3"]
