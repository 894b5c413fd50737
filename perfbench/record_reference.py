"""Record the reference digests the gate compares every pass against.

Run from the root of a source checkout, at a commit whose outputs are
trusted::

    python3 perfbench/record_reference.py --workload readme

For each of the workload's phase indices it runs the four verbs once,
requires the pass to clear the other gate checks, and writes the digest of
every output file to ``perfbench/reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
import gate
import workloads

SIGNIFICANT = 14


def _rounded(node):
    if isinstance(node, float):
        return float(f"{node:.{SIGNIFICANT}g}")
    if isinstance(node, list):
        return [_rounded(x) for x in node]
    if isinstance(node, dict):
        return {k: _rounded(v) for k, v in node.items()}
    return node


def record(workload: str) -> dict:
    cli = run._import_cli()
    work_dir = os.path.join(run.WORK_ROOT, f"reference_{workload}_{os.getpid()}")
    os.makedirs(work_dir)
    phases = {}
    try:
        for k in range(workloads.PHASE_STEPS):
            cfg_path = os.path.join(work_dir, f"config{k}.json")
            with open(cfg_path, "w") as fh:
                json.dump(workloads.config(workload, k), fh)
            out_dir = os.path.join(work_dir, f"phase{k}")
            _, codes = run.run_pass(cli.main, cfg_path, out_dir)
            failed, msgs, _, margin = gate.check_pass(out_dir, codes, None)
            if failed:
                raise run.BenchError(f"{workload} phase {k} fails the gate: {msgs}")
            phases[str(k)] = _rounded(gate.digest_dir(out_dir))
            print(f"{workload} phase {k}: {len(phases[str(k)])} files,"
                  f" accuracy margin {margin:.4f}", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {"workload": workload, "phase_step_deg": workloads.PHASE_STEP_DEG,
            "digest_fields": ["count", "sum", "sum_abs", "max_abs", "last"],
            "phases": phases}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    args = parser.parse_args()
    doc = record(args.workload)
    path = os.path.join(run.REFERENCE_DIR, f"{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
