"""Simulation-only commands never import numpy.

numpy lives only in the modules of :mod:`repro.hid` that build a
dataset, a scaler, a classifier, a detector or metrics.  Table I, the
attack demo, the disassembler and the workload list run without it:
each runs here in a subprocess whose ``sys.meta_path`` refuses numpy,
and must print exactly what it prints in one that may import it.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Runs each argv (a JSON list of argv lists) through ``repro.cli.main``
#: and prints one JSON object: every command's exit code and stdout,
#: and whether numpy was imported.  With ``block`` first, an import of
#: numpy raises.
_DRIVER = r"""
import contextlib, io, json, sys

class _NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked in this process")
        return None

block, commands = sys.argv[1] == "block", json.loads(sys.argv[2])
if block:
    sys.meta_path.insert(0, _NoNumpy())
# The modules perfbench's child imports before it starts timing.
import repro.cli, repro.core.experiments, repro.exec, repro.obs
runs = []
for argv in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = repro.cli.main(argv)
    runs.append([rc, out.getvalue()])
print(json.dumps({"runs": runs, "numpy": "numpy" in sys.modules}))
"""

SIMULATION_ONLY = [
    ["table1", "--quick", "--no-ledger"],
    ["table1", "--quick", "--no-ledger", "--uarch", "ooo"],
    ["attack"],
    ["disasm"],
    ["workloads"],
]


def _drive(mode, commands, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, mode, json.dumps(commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_simulation_commands_run_without_numpy(tmp_path):
    blocked = _drive("block", SIMULATION_ONLY, tmp_path)
    reference = _drive("allow", SIMULATION_ONLY, tmp_path)
    assert not blocked["numpy"] and not reference["numpy"]
    assert [rc for rc, _ in blocked["runs"]] == [0] * len(SIMULATION_ONLY)
    assert blocked["runs"] == reference["runs"]


def test_detector_commands_still_import_numpy(tmp_path):
    """The import is deferred, not lost: fig4 trains detectors."""
    result = _drive("allow", [["fig4", "--quick", "--no-ledger"]],
                    tmp_path)
    assert result["runs"][0][0] == 0
    assert result["numpy"]
