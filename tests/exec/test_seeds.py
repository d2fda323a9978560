"""The seed-derivation contract: stable, collision-free, documented."""

import hashlib
import subprocess
import sys

from repro.exec import derive_seed, stable_hash


class TestStableHash:
    def test_matches_documented_scheme(self):
        material = "fig5\x00training\x0042".encode("utf-8")
        expected = int.from_bytes(
            hashlib.sha256(material).digest()[:8], "big"
        )
        assert derive_seed("fig5", "training", 42) == expected

    def test_golden_value_pinned(self):
        # A changed derivation silently invalidates every cached cell
        # and breaks serial/parallel parity with older runs — pin it.
        assert stable_hash("a", "b", 1) == 0x784AE3F14AE3A422

    def test_nul_separator_prevents_concatenation_collisions(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_survives_interpreter_restart(self):
        # Python's builtin hash() would fail this under PYTHONHASHSEED
        # randomisation; sha256 must not.
        import os

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("from repro.exec import derive_seed; "
                "print(derive_seed('fig4', 'host/sha', 8))")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                         PYTHONPATH=src),
            ).stdout.strip()
            for hash_seed in ("0", "1", "12345")
        }
        assert len(outputs) == 1
        assert outputs == {str(derive_seed("fig4", "host/sha", 8))}


class TestDeriveSeed:
    def test_distinct_per_cell(self):
        seeds = {
            derive_seed("fig5", f"spectre/attempt/{i}", 0)
            for i in range(100)
        }
        assert len(seeds) == 100

    def test_distinct_per_experiment_and_root(self):
        assert derive_seed("fig5", "training", 0) != \
            derive_seed("fig6", "training", 0)
        assert derive_seed("fig5", "training", 0) != \
            derive_seed("fig5", "training", 1)

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed("x", "y", 2**63) < 2**64
