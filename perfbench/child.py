"""One benchmark invocation, in a fresh interpreter.

    python3 child.py --spawned-at T --out RECORD.json
        [--setup-only] [--trace SPANS.jsonl]
        [--expectations FILE --profile NAME --experiment NAME --uarch NAME]
        -- REPRO-ARGV...

Run by ``run.py`` with the working directory set to a fresh, empty
directory, so the CLI's default ``runs/`` ledger (and the cell cache it
turns on) starts empty, as on a user's first run.  *T* is the parent's
``time.monotonic()`` just before it started this process; the system
clock is shared, so ``setup_s`` covers interpreter start-up plus every
import the experiment path needs.

The record written to *RECORD.json* holds the timings, the exit code,
the manifest digest, every cell status and the ``expectations.json``
band checks; the parent decides pass or fail.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _import_program():
    """Every module the experiment path imports, before timing starts."""
    import repro.cli  # noqa: F401
    import repro.core.experiments  # noqa: F401
    import repro.exec  # noqa: F401
    import repro.obs  # noqa: F401


def _check_output(args, rc):
    """Digest, statuses and band checks of the run's manifest."""
    from repro.obs.gate import bands_for, check_headlines, load_expectations
    from repro.obs.ledger import load_manifest, manifest_bytes, read_index

    entries = read_index("runs")
    if rc != 0 or len(entries) != 1:
        return {"digest": None, "statuses": [], "bands": []}
    manifest = load_manifest(entries[0]["run_id"], ledger_dir="runs")
    bands = bands_for(load_expectations(args.expectations), args.experiment,
                      profile=args.profile, uarch=args.uarch)
    checks = check_headlines(manifest["headlines"], bands)
    return {
        "digest": hashlib.sha256(manifest_bytes(manifest)).hexdigest(),
        "statuses": sorted({cell["status"] for cell in manifest["cells"]}),
        "bands": [{"headline": check["headline"], "ok": check["ok"],
                   "value": check["value"]} for check in checks],
        "partial": manifest["partial"],
    }


def _run(argv, tracer):
    """Time ``repro.cli.main(argv)``; returns (exit code, wall seconds)."""
    import repro.cli

    gc.collect()
    with open("stdout.txt", "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        tick = time.perf_counter()
        if tracer is None:
            rc = repro.cli.main(argv)
        else:
            rc = tracer.span("repro", lambda: repro.cli.main(argv))
        wall_s = time.perf_counter() - tick
    return rc, wall_s


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--expectations")
    parser.add_argument("--profile")
    parser.add_argument("--experiment")
    parser.add_argument("--uarch")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    _import_program()
    record = {"setup_s": time.monotonic() - args.spawned_at,
              "interpreter_s": _STARTED - args.spawned_at}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from layers import LayerTracer, restored, summarise

            tracer = LayerTracer()
            tracer.install()
        try:
            rc, wall_s = _run(args.argv, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        record.update(rc=rc, wall_s=wall_s, peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        record.update(_check_output(args, rc))
        if tracer is not None:
            record["restored"] = restored()
            record["layers"] = summarise(tracer.spans, tracer.pmu_totals)
            with open(args.trace, "w", encoding="utf-8") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span, separators=(",", ":")))
                    handle.write("\n")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    main()
