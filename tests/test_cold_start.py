"""Import contract: ``import jcdamp`` and the simulate, solve and wigner
verbs load no scipy; ``compare`` loads ``scipy.sparse`` for its
doubled-space route.

The check runs in a fresh interpreter that imports jcdamp from the same
directory as this test process does, so run against an installed package
it checks the installation, not the source tree.
"""

import json
import os
import subprocess
import sys

import jcdamp

PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(jcdamp.__file__)))

CONFIG = {
    "params": {"omega": 1.0, "coupling": 0.1, "gamma": 0.2, "n_trunc": 12},
    "initial": {"coherent_alpha0": [0.5, 0.0], "atom": "up"},
    "grid": {"t_start": 0.0, "t_end": 0.5, "n_steps": 50},
    "outputs": ["trajectory", "components"],
    "snapshot_times": [0.5],
    "wigner": {"re_min": -1.0, "re_max": 1.0, "n_re": 3,
               "im_min": -1.0, "im_max": 1.0, "n_im": 3, "times": [0.0, 0.5]},
}

# argv: package parent, config path; prints one JSON object, stage -> [exit
# code, scipy modules loaded so far]
SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import jcdamp
import jcdamp.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

loaded = {"import": [0, scipy_modules()]}
jcdamp.cli.load_config(sys.argv[2]).initial_joint()
loaded["load_config"] = [0, scipy_modules()]
for verb in ("simulate", "solve", "wigner", "compare"):
    code = jcdamp.cli.main([verb, "--config", sys.argv[2], "--out", verb, "--quiet"])
    loaded[verb] = [code, scipy_modules()]
print(json.dumps(loaded))
"""


def test_only_compare_loads_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, PACKAGE_PARENT, str(config)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    for stage in ("import", "load_config", "simulate", "solve", "wigner"):
        code, modules = loaded[stage]
        assert code == 0 and not modules, \
            f"{stage}: exit {code}, {len(modules)} scipy modules loaded, such as {modules[:3]}"
    code, modules = loaded["compare"]
    assert code == 0
    assert "scipy.sparse" in modules
