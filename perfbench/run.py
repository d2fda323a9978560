"""Artefact-time benchmark for the CR-Spectre reproduction.

    python3 perfbench/run.py --workload {fig5,table1,fig4-ooo} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each invocation of the workload is
``repro <experiment> --quick --seed N`` with the program's defaults
(default engine, serial backend), in a fresh interpreter whose working
directory is a fresh empty directory, timed from outside (see
``child.py``).  A paper-scale invocation (no ``--quick``) takes
15-30 s, too long to repeat within one run.

``--trace 0`` repeats the invocation until ``--seconds`` are used (at
least once) and reports the fastest ``wall_s`` and ``setup_s`` and the
median ``peak_rss_mb``.  ``--trace 1`` runs one untraced and
one traced invocation and reports the per-layer metrics of
``layers.py``.  Every
invocation's output is checked; the last line of standard output is
the JSON result.  See README.md for the workloads and the metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import EXACT_COUNTS, METRICS  # noqa: E402

#: workload -> (experiment, uarch, repro argv before ``--seed``).
WORKLOADS = {
    "fig5": ("fig5", "inorder", ["fig5"]),
    "table1": ("table1", "inorder", ["table1"]),
    "fig4-ooo": ("fig4", "ooo", ["fig4", "--uarch", "ooo"]),
}

#: The CLI's default seed: the one ``reference.json`` holds digests for.
DEFAULT_SEED = 0

#: Set-up probes per run; one more runs first and is discarded, so a
#: cold file cache is never timed.
SETUP_PROBES = 25

#: Every run ends within this many seconds of starting.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def host_probe():
    """Seconds a fixed pure-Python loop takes: a host-speed diagnostic."""
    tick = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - tick


def code_identity(root):
    """sha256 over the paths and contents of every ``src/**/*.py``."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read() + b"\0")
    return digest.hexdigest()


class Bench:
    """One run of one workload: spawns, times and checks invocations."""

    def __init__(self, root, workload, seed, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.experiment, self.uarch, argv = WORKLOADS[workload]
        self.argv = argv + ["--quick", "--seed", str(seed)]
        self.state = os.path.join(root, ".perfbench")
        self.scratch = os.path.join(self.state, "tmp")
        self.code_id = code_identity(root)
        os.makedirs(self.scratch, exist_ok=True)
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith(("REPRO_", "PYTHON"))}
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        with open(os.path.join(HERE, "reference.json"),
                  encoding="utf-8") as handle:
            self.reference = json.load(handle)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def invoke(self, setup_only=False, trace=False):
        """Run ``child.py`` once in a fresh directory; returns its record."""
        cwd = tempfile.mkdtemp(prefix="run-", dir=self.scratch)
        out = os.path.join(cwd, "record.json")
        command = [sys.executable, os.path.join(HERE, "child.py"),
                   "--out", out]
        if setup_only:
            command.append("--setup-only")
        else:
            command += [
                "--expectations", os.path.join(self.root, "expectations.json"),
                "--profile", "quick",
                "--experiment", self.experiment, "--uarch", self.uarch,
            ]
            if trace:
                command += ["--trace", os.path.join(self.state,
                                                    f"spans-{self.workload}"
                                                    ".jsonl")]
            command += ["--"] + self.argv
        probe_s = host_probe()
        try:
            with open(os.path.join(cwd, "stderr.txt"), "w") as stderr:
                spawned_at = time.monotonic()
                child = subprocess.Popen(
                    command[:2] + ["--spawned-at", repr(spawned_at)]
                    + command[2:],
                    cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                    stdout=stderr, stderr=stderr)
                try:
                    rc = child.wait(timeout=max(
                        1.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    rc = "timeout"
                finally:
                    # Also on an interrupt: never leave a child behind.
                    if child.poll() is None:
                        child.kill()
                        child.wait()
            record = {"child_rc": rc, "host_probe_s": probe_s}
            if rc == 0:
                with open(out, encoding="utf-8") as handle:
                    record.update(json.load(handle))
            else:
                with open(os.path.join(cwd, "stderr.txt")) as handle:
                    record["stderr_tail"] = handle.read()[-2000:]
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        if not setup_only:
            self.attempted += 1
            record["problems"] = []
            self.flag(record, self.check(record))
        self.log(record)
        return record

    def flag(self, record, problems):
        """Count *record*'s invocation as failed for *problems*."""
        if problems and not record["problems"]:
            self.failed += 1
        record["problems"] += problems
        self.problems += problems

    def check(self, record):
        """Everything wrong with one invocation's output (empty = ok)."""
        if record["child_rc"] != 0:
            return [f"child exited {record['child_rc']}: "
                    f"{record.get('stderr_tail', '')[-300:]}"]
        problems = []
        if record["rc"] != 0:
            problems.append(f"repro exited {record['rc']}")
        if record["statuses"] != ["ok"]:
            problems.append(f"cell statuses {record['statuses']}")
        if record.get("partial"):
            problems.append("partial result")
        problems += [f"headline {band['headline']}={band['value']} "
                     "outside its band"
                     for band in record["bands"] if not band["ok"]]
        if not record["bands"]:
            problems.append("no headline bands checked")
        if self.seed == DEFAULT_SEED:
            expected = self.reference[self.workload]
            if record["digest"] != expected:
                problems.append(f"manifest digest {record['digest']} "
                                f"!= reference {expected}")
        if "layers" in record and not record["restored"]:
            problems.append("tracer left a wrapper installed")
        return problems

    def log(self, record):
        line = json.dumps({"workload": self.workload, "seed": self.seed,
                           **record}, sort_keys=True)
        print(line)
        with open(os.path.join(self.state, "records.jsonl"), "a",
                  encoding="utf-8") as handle:
            handle.write(line + "\n")

    def compile_bytecode(self):
        """Compile all of ``src/``, as an installed package has it.

        Otherwise the first timed invocation in a fresh checkout would
        also compile every module it imports lazily.
        """
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        os.path.join(self.root, "src")],
                       env=self.env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))

    def setup_samples(self):
        """Set-up times of :data:`SETUP_PROBES` fresh starts."""
        records = [self.invoke(setup_only=True)
                   for _ in range(SETUP_PROBES + 1)]
        bad = [r for r in records if r["child_rc"] != 0]
        if bad:
            raise RuntimeError(f"set-up probe failed: {bad[0]}")
        return [r["setup_s"] for r in records[1:]]

    def end_to_end(self, seconds):
        setups = self.setup_samples()
        started = time.monotonic()
        records = []
        while True:
            tick = time.monotonic()
            records.append(self.invoke())
            cost = time.monotonic() - tick
            used = time.monotonic() - started
            if used + cost > seconds or \
                    time.monotonic() + 1.5 * cost > self.deadline:
                break
        ok = [r for r in records if r["child_rc"] == 0]
        if not ok:
            return {}
        # Start-up and invocation are deterministic and single-threaded:
        # host contention only ever slows them, so the fastest sample is
        # the steadiest estimate of their cost (see README.md).  Every
        # invocation also starts up, so its set-up time is one more sample.
        return {
            "wall_s": min(r["wall_s"] for r in ok),
            "setup_s": min(setups + [r["setup_s"] for r in ok]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        }

    def per_layer(self):
        base = self.invoke()
        traced = self.invoke(trace=True)
        if base["child_rc"] != 0 or traced["child_rc"] != 0:
            return {}
        if traced["digest"] != base["digest"]:
            self.flag(traced, ["traced manifest digest differs"])
        layers = dict(traced["layers"])
        layers["trace.base_wall_s"] = base["wall_s"]
        layers["trace.overhead"] = traced["wall_s"] / base["wall_s"]
        self.flag(traced, self.count_drift(layers))
        return layers

    def count_drift(self, layers):
        """Exact counts must repeat across runs of one code and seed.

        Host-side counts such as ``hid.fits`` or ``isa.assemblies`` may
        change with the code, so runs of other code are not compared.
        """
        path = os.path.join(self.state, "counts", self.code_id[:16],
                            f"{self.workload}-{self.seed}.json")
        counts = {name: layers[name] for name in EXACT_COUNTS}
        try:
            with open(path, encoding="utf-8") as handle:
                earlier = json.load(handle)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(counts, handle)
            return []
        drift = {name: (earlier.get(name), counts[name]) for name in counts
                 if earlier.get(name) != counts[name]}
        return [f"counts drifted: {drift}"] if drift else []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    missing = [path for path in ("src/repro/cli.py", "expectations.json")
               if not os.path.isfile(os.path.join(root, path))]
    if missing:
        print(f"perfbench: not a repro checkout, missing {missing}",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed, deadline)
    bench.compile_bytecode()
    if args.trace:
        values, units = bench.per_layer(), METRICS
    else:
        values, units = bench.end_to_end(args.seconds), END_TO_END
    if set(values) != set(units):
        print(f"perfbench: no measurement: {bench.problems}",
              file=sys.stderr)
        return 1
    for problem in bench.problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
