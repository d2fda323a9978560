"""Byte pins of the quick artefacts' manifests.

Each ``<experiment>-<uarch>.json`` here holds the stripped manifest of
one quick artefact at seed 0: :func:`~repro.obs.ledger.manifest_bytes`
without ``git_sha``, the one field that names the checkout rather than
the run.  The test reruns the artefact through the CLI and compares
bytes; on a mismatch it prints ``repro compare``'s section diff, so
the failure names the first divergent section.  Table I drives the
wrong-path walk hardest; fig4 on the out-of-order core drives its
stack ops; fig5 and fig6 drive the ``ret`` and ``callr`` paths of both
cores, and hardening the shadow stack and the other countermeasures.

The pins hold under either engine: CI reruns this file under
``REPRO_ENGINE=step``.  Only a change that means to move an artefact
re-pins, naming each file and the reason in CHANGES.md.  ``python -m
tests.golden.test_manifests`` rewrites every file from the current
tree.
"""

import json
import pathlib

import pytest

from repro.cli import EXIT_OK, main
from repro.obs.compare import diff_manifests, format_compare
from repro.obs.ledger import manifest_bytes, read_index, load_manifest

HERE = pathlib.Path(__file__).parent
PINS = [(experiment, uarch)
        for experiment in ("table1", "fig4", "fig5", "fig6", "hardening")
        for uarch in ("inorder", "ooo")]


def _pin_path(experiment, uarch):
    return HERE / f"{experiment}-{uarch}.json"


def run_stripped(experiment, uarch, ledger):
    """The stripped manifest bytes of a fresh quick run at seed 0."""
    argv = [experiment, "--quick", "--seed", "0", "--uarch", uarch,
            "--ledger", str(ledger), "--no-cell-cache"]
    assert main(argv) == EXIT_OK
    [entry] = read_index(str(ledger))
    manifest = load_manifest(entry["run_id"], ledger_dir=str(ledger))
    del manifest["git_sha"]
    return manifest_bytes(manifest)


@pytest.mark.parametrize("experiment, uarch", PINS,
                         ids=["-".join(pin) for pin in PINS])
def test_quick_manifest_matches_pin(experiment, uarch, tmp_path):
    pin = _pin_path(experiment, uarch)
    expected = pin.read_bytes()
    observed = run_stripped(experiment, uarch, tmp_path)
    if observed != expected:
        sections = diff_manifests(json.loads(expected), json.loads(observed))
        pytest.fail(format_compare(pin.name, "this tree", sections),
                    pytrace=False)


if __name__ == "__main__":
    import tempfile

    for pin_experiment, pin_uarch in PINS:
        with tempfile.TemporaryDirectory() as scratch:
            _pin_path(pin_experiment, pin_uarch).write_bytes(
                run_stripped(pin_experiment, pin_uarch, scratch))
