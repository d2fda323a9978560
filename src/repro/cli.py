"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``attack``      run one ROP-injected extraction and print the leak
``gadgets``     print the ROP gadget catalogue of a host binary
``disasm``      disassemble a workload or attack binary
``workloads``   list available workloads
``fig4/fig5/fig6/table1/hardening``  regenerate one paper artefact
``profile``     profile a *simulated workload*: dump HPC windows to CSV
``hotspots``    profile the *simulator itself*: cycle attribution by
                subsystem / opcode / basic block (see docs/PROFILING.md)
``smoke``       fast resilience smoke run (CI): faults + retries
``trace``       summarise a recorded trace (see ``--trace`` above)
``compare``     diff two ledger runs knob-by-knob / span-by-span
``gate``        check a run's headlines against expectations.json
``report``      render a run manifest as a static HTML dashboard

Experiment runs record a manifest in the run ledger (``runs/`` by
default; ``--no-ledger`` opts out) — see docs/LEDGER.md.

Exit codes
----------
0  success
1  fatal error (unrecoverable :class:`~repro.errors.ReproError`)
2  usage error (bad arguments; argparse convention)
3  instruction budget / watchdog exceeded
4  partial results (some sweep cells degraded by faults)
5  regression gate failed / compared runs differ
"""

import argparse
import os
import sys

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PARTIAL = 4
EXIT_GATE = 5


#: Scaled-down knob overlays: ``--quick`` runs and every profiled
#: ``repro hotspots --experiment`` run (the instrumented step loop pays
#: an order of magnitude per instruction, so hotspot attribution always
#: samples at quick scale — the *shape* of the profile is what matters).
QUICK_KNOBS = {
    "fig4": dict(benign_per_host=60, attack_per_variant=20,
                 variants=("v1",)),
    "fig5": dict(attempts=3, training_benign=90,
                 training_attack=90, attempt_samples=24,
                 attempt_benign=8),
    "fig6": dict(attempts=3, training_benign=90,
                 training_attack=90, attempt_samples=24,
                 attempt_benign=8),
    "table1": dict(repetitions=1,
                   rows=(("Math", "basicmath", (60,)),
                         ("SHA 1", "sha", (10,)))),
    "hardening": dict(train_variant_counts=(0, 2),
                      holdout_variants=2, samples_per_variant=20,
                      training_benign=80, training_attack=60),
}


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (default 0)")


def _fault_spec(text):
    """argparse type for ``--inject-faults kind=rate`` items."""
    from repro.core.resilience import FAULT_KINDS

    kind, sep, rate_text = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected kind=rate, got {text!r}"
        )
    if kind not in FAULT_KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown fault kind {kind!r} (choose from "
            f"{', '.join(FAULT_KINDS)})"
        )
    try:
        rate = float(rate_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"rate must be a float in [0, 1], got {rate_text!r}"
        )
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(
            f"rate must be in [0, 1], got {rate}"
        )
    return kind, rate


def _add_resilience(parser):
    parser.add_argument(
        "--inject-faults", metavar="KIND=RATE", type=_fault_spec,
        action="append", default=None,
        help="arm the deterministic fault injector (repeatable), e.g. "
             "--inject-faults hpc_drop=0.05",
    )
    parser.add_argument(
        "--max-fault-fires", type=int, default=None, metavar="N",
        help="cap the total number of injected faults (per kind)",
    )


def _add_exec(parser):
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan the sweep's cells over N worker processes "
             "(default 1 = serial; results are bit-identical either way)",
    )
    parser.add_argument(
        "--list-cells", action="store_true",
        help="print the sweep's cell plan (key, derived seed, "
             "dependencies, cached/pending) without executing it",
    )
    parser.add_argument(
        "--cell-cache", metavar="DIR", default=None,
        help="content-addressed cell result cache root (default: "
             "<ledger>/cellcache; disabled when the ledger is off "
             "unless set explicitly); re-running a killed sweep "
             "against the same cache resumes it",
    )
    parser.add_argument(
        "--no-cell-cache", action="store_true",
        help="always compute cells, never replay memoized results",
    )


def _add_hotspots(parser):
    from repro.obs import SUBSYSTEMS

    parser.add_argument(
        "--hotspots", action="store_true",
        help="self-profile the simulator while it runs this "
             "experiment: per-subsystem cycle attribution, opcode and "
             "basic-block hotness, summarised after the run and "
             "recorded in the manifest (instrumented loop; see "
             "docs/PROFILING.md)",
    )
    parser.add_argument(
        "--hotspots-filter", metavar="SUBSYSTEMS", default=None,
        help="comma-separated subsystems to export (subset of "
             f"{','.join(SUBSYSTEMS)}; default: all)",
    )


def _add_trace(parser):
    from repro.obs import CATEGORIES

    parser.add_argument(
        "--trace", action="store_true",
        help="record deterministic virtual-time spans per sweep cell "
             "(JSONL + Perfetto-loadable Chrome trace; see "
             "docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--trace-filter", metavar="CATS", default=None,
        help="comma-separated categories to record (subset of "
             f"{','.join(CATEGORIES)}; default: all)",
    )
    parser.add_argument(
        "--trace-out", metavar="DIR", default=None,
        help="directory for the trace sinks (default: the run's ledger "
             "directory, or traces/ when the ledger is disabled)",
    )


def _add_ledger(parser):
    parser.add_argument(
        "--ledger", metavar="DIR", default="runs",
        help="run-ledger root: record a run manifest under "
             "DIR/<run-id>/manifest.json (default: runs/; see "
             "docs/LEDGER.md)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not record a run manifest",
    )


def _resolve(command, kwargs):
    """(module, resolved knob dict) for one experiment command.

    Fills every knob the runner would default from ``run_<command>``'s
    signature, then overlays *kwargs* — so plan/meta helpers called via
    :func:`_call_accepted` see exactly what ``run_<command>`` would.
    """
    import importlib
    import inspect

    module = importlib.import_module(f"repro.core.experiments.{command}")
    run_fn = getattr(module, f"run_{command}")
    values = {
        name: parameter.default
        for name, parameter in inspect.signature(run_fn).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    values.update(kwargs)
    return module, values


def _call_accepted(fn, values):
    """Call *fn* with the subset of *values* its signature accepts."""
    import inspect

    accepted = inspect.signature(fn).parameters
    return fn(**{k: v for k, v in values.items() if k in accepted})


def _plan(command, kwargs):
    """Build the experiment's plan without running it.

    Fills every knob the runner would default, then calls the module's
    ``plan_<command>`` with the knobs it accepts — so the plan matches
    exactly what ``run_<command>`` would execute.
    """
    module, values = _resolve(command, kwargs)
    return _call_accepted(getattr(module, f"plan_{command}"), values)


def _build_faults(args):
    """FaultInjector from --inject-faults/--seed, or None if unarmed."""
    specs = getattr(args, "inject_faults", None)
    if not specs:
        return None
    from repro.core.resilience import FaultInjector

    return FaultInjector(
        seed=args.seed,
        rates=dict(specs),
        max_fires=getattr(args, "max_fault_fires", None),
    )


def build_parser():
    from repro.uarch import UARCHS

    from repro.cpu.engine import DEFAULT_ENGINE, ENGINE_MODES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CR-Spectre (DATE 2022) reproduction toolkit",
    )
    parser.add_argument(
        "--engine", choices=ENGINE_MODES, default=None,
        help="execution engine for every simulated CPU: 'step' (the "
             "single-instruction reference) or 'sb' (compiled "
             "superblocks for hot code, step() for the rest; default "
             f"{DEFAULT_ENGINE}). Ambient only — never part of "
             "manifests or run ids, so the same experiment run under "
             "different engines compares byte-identical",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attack", help="run one injected extraction")
    p.add_argument("--variant", default="v1",
                   choices=("v1", "rsb", "sbo", "btb"))
    p.add_argument("--host", default="basicmath")
    p.add_argument("--secret", default="TheMagicWords!!!")
    p.add_argument("--delay", type=int, default=0,
                   help="Algorithm-2 dispersion trips (0 = plain)")
    p.add_argument("--style", type=int, default=0, choices=(0, 1, 2),
                   help="dispersion style: 0=cells 1=stream 2=chase")
    p.add_argument("--budget", type=int, default=None, metavar="INSNS",
                   help="instruction watchdog: fail with exit code 3 "
                        "instead of running past this many instructions")
    _add_seed(p)

    p = sub.add_parser("gadgets", help="print a host's gadget catalogue")
    p.add_argument("--host", default="basicmath")
    p.add_argument("--limit", type=int, default=25)

    p = sub.add_parser("disasm", help="disassemble a workload binary")
    p.add_argument("--workload", default="basicmath")
    p.add_argument("--hosted", action="store_true",
                   help="include the Algorithm-1 vulnerable wrapper")

    sub.add_parser("workloads", help="list available workloads")

    for name, help_text in (
        ("fig4", "HID accuracy vs feature size"),
        ("fig5", "offline HID vs Spectre / CR-Spectre"),
        ("fig6", "online HID vs dynamic CR-Spectre"),
        ("table1", "IPC overhead of co-located CR-Spectre"),
        ("hardening", "adversarial-training ablation"),
    ):
        p = sub.add_parser(name, help=f"regenerate {help_text}")
        p.add_argument("--quick", action="store_true",
                       help="scaled-down run (~10x faster, same shapes)")
        p.add_argument("--uarch", default="inorder",
                       choices=sorted(UARCHS),
                       help="CPU microarchitecture every simulated "
                            "machine runs on (default: inorder)")
        _add_seed(p)
        _add_resilience(p)
        _add_exec(p)
        _add_trace(p)
        _add_hotspots(p)
        _add_ledger(p)
        if name == "table1":
            p.add_argument(
                "--budget", type=int, default=None, metavar="INSNS",
                help="per-measurement instruction watchdog",
            )

    p = sub.add_parser(
        "profile",
        help="profile a simulated workload: dump its HPC windows to "
             "CSV (the HID feature pipeline's input; to profile the "
             "simulator itself, see 'repro hotspots')",
    )
    p.add_argument("--workload", default="basicmath")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--output", default="traces.csv")
    _add_seed(p)

    p = sub.add_parser(
        "hotspots",
        help="profile the simulator itself: virtual-cycle attribution "
             "by subsystem, per-opcode tables and basic-block hotness "
             "(the simulated workload's profiler is 'repro profile')",
    )
    p.add_argument("--workload", default="basicmath",
                   help="workload to simulate under the profiler "
                        "(default: basicmath)")
    p.add_argument("--iterations", type=int, default=2000, metavar="N",
                   help="workload iterations (default 2000; the "
                        "instrumented loop is slow by design)")
    p.add_argument("--experiment", default=None,
                   choices=("fig4", "fig5", "fig6", "table1",
                            "hardening"),
                   help="profile a whole experiment sweep (at --quick "
                        "scale) instead of one workload")
    p.add_argument("--uarch", default="inorder", choices=sorted(UARCHS),
                   help="CPU microarchitecture (default: inorder)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for --experiment sweeps "
                        "(profiles are bit-identical either way)")
    p.add_argument("--top", type=int, default=15, metavar="N",
                   help="rows per hotspot table (default 15)")
    p.add_argument("--filter", metavar="SUBSYSTEMS", default=None,
                   help="comma-separated subsystems to export "
                        "(default: all)")
    p.add_argument("--collapsed", action="store_true",
                   help="emit flamegraph.pl collapsed-stack lines "
                        "instead of tables")
    p.add_argument("--by", default="subsystem",
                   choices=("subsystem", "opcode", "block"),
                   help="leaf frame dimension for --collapsed "
                        "(default: subsystem)")
    p.add_argument("--json", action="store_true",
                   help="emit the merged profile snapshot as JSON")
    _add_seed(p)

    p = sub.add_parser(
        "trace",
        help="summarise a recorded trace JSONL (top spans by virtual "
             "time, event counts)",
    )
    p.add_argument("file",
                   help="a <experiment>.trace.jsonl sink, or a "
                        "*.chrome.json Perfetto export")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="rows per summary table (default 10)")
    p.add_argument("--json", action="store_true",
                   help="emit the summary as JSON instead of tables")

    p = sub.add_parser(
        "compare",
        help="diff two ledger runs: knobs, headlines, cell statuses, "
             "metrics — and the first divergent trace span per cell",
    )
    p.add_argument("run_a", help="run id / run dir / manifest path")
    p.add_argument("run_b", help="run id / run dir / manifest path")
    p.add_argument("--ledger", metavar="DIR", default="runs",
                   help="ledger root for bare run ids (default: runs/)")
    p.add_argument("--no-traces", action="store_true",
                   help="skip trace-level divergence localisation")
    p.add_argument("--max-rows", type=int, default=20, metavar="N",
                   help="rows per diff section before eliding "
                        "(default 20)")

    p = sub.add_parser(
        "gate",
        help="check a run's recorded headlines against the committed "
             "expectation bands; exit 5 on regression",
    )
    p.add_argument("run", help="run id / run dir / manifest path")
    p.add_argument("--ledger", metavar="DIR", default="runs",
                   help="ledger root for bare run ids (default: runs/)")
    p.add_argument("--expectations", metavar="FILE",
                   default="expectations.json",
                   help="expectation bands (default: expectations.json)")
    p.add_argument("--profile", default="quick",
                   help="band profile: 'quick' for scaled-down CI runs, "
                        "'full' for paper-scale runs (default: quick)")

    p = sub.add_parser(
        "report",
        help="render a run manifest as a self-contained static HTML "
             "dashboard (headline tiles, sparklines, cell tables)",
    )
    p.add_argument("run", help="run id / run dir / manifest path")
    p.add_argument("--ledger", metavar="DIR", default="runs",
                   help="ledger root for bare run ids (default: runs/)")
    p.add_argument("--html", metavar="OUT", default=None,
                   help="output path (default: <run dir>/report.html)")
    p.add_argument("--expectations", metavar="FILE", default=None,
                   help="colour headline tiles with gate verdicts from "
                        "this expectations file (default: "
                        "expectations.json when present)")
    p.add_argument("--profile", default="quick",
                   help="band profile for tile verdicts (default: quick)")

    p = sub.add_parser(
        "smoke",
        help="resilience smoke run for CI: quick fig4 sweep plus a "
             "calibration under injected faults and retries",
    )
    p.add_argument("--uarch", default="inorder", choices=sorted(UARCHS),
                   help="CPU microarchitecture for the smoke sweep "
                        "(default: inorder)")
    _add_seed(p)
    _add_resilience(p)
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the smoke sweep (default 1)",
    )

    return parser


def cmd_attack(args):
    from repro.attack import PerturbParams, SpectreConfig, build_spectre, \
        plan_execve_injection
    from repro.kernel import System
    from repro.workloads import get_workload

    secret = args.secret.encode("latin-1")
    perturb = None
    if args.delay:
        perturb = PerturbParams(delay=args.delay, style=args.style,
                                calls_per_byte=2)
    system = System(seed=args.seed, target_data=secret)
    host = get_workload(args.host).build(iterations=1 << 20, hosted=True)
    attack = build_spectre(args.variant, SpectreConfig(
        secret_length=len(secret), repeats=1, perturb=perturb,
    ))
    system.install_binary("/bin/host", host)
    system.install_binary("/bin/cr", attack)
    plan = plan_execve_injection(host, "/bin/host", "/bin/cr")
    print(plan.describe())
    process = system.spawn("/bin/host", argv=plan.argv)
    watchdog = None
    if args.budget is not None:
        from repro.core.resilience import Watchdog

        watchdog = Watchdog(args.budget, label="attack")
    process.run_to_completion(max_instructions=120_000_000,
                              watchdog=watchdog)
    leaked = bytes(process.stdout)
    correct = sum(a == b for a, b in zip(leaked, secret))
    print(f"\nleaked: {leaked!r}  ({correct}/{len(secret)} bytes correct)")
    return EXIT_OK if correct == len(secret) else EXIT_FATAL


def cmd_gadgets(args):
    from repro.attack import scan_program
    from repro.mem.layout import AddressSpaceLayout
    from repro.workloads import get_workload

    host = get_workload(args.host).build(iterations=100, hosted=True)
    scanner = scan_program(host, AddressSpaceLayout().text_base)
    gadgets = scanner.scan()
    unique = scanner.unique_gadgets()
    print(f"{len(gadgets)} gadget sites, {len(unique)} unique sequences "
          f"in {args.host!r} "
          f"(showing {min(args.limit, len(unique))}):")
    print(scanner.report(limit=args.limit, unique=True))
    return 0


def cmd_disasm(args):
    from repro.isa.disassembler import format_listing
    from repro.mem.layout import TEXT_BASE
    from repro.workloads import get_workload

    program = get_workload(args.workload).build(
        iterations=100, hosted=args.hosted
    )
    text, _ = program.relocated(TEXT_BASE, 0x1000_0000)
    print(format_listing(text, base=TEXT_BASE))
    return 0


def cmd_workloads(_args):
    from repro.workloads import ALL_WORKLOADS

    for workload in ALL_WORKLOADS:
        print(f"{workload.name:18s} [{workload.category:7s}] "
              f"{workload.description}")
    return 0


def cmd_experiment(args):
    from repro.core.experiments import run_fig4, run_fig5, run_fig6, \
        run_hardening, run_table1

    runner = {
        "fig4": run_fig4,
        "fig5": run_fig5,
        "fig6": run_fig6,
        "table1": run_table1,
        "hardening": run_hardening,
    }[args.command]
    kwargs = {"seed": args.seed,
              "uarch": getattr(args, "uarch", "inorder")}
    if getattr(args, "quick", False):
        kwargs.update(QUICK_KNOBS[args.command])
    faults = _build_faults(args)
    if faults is not None:
        kwargs["faults"] = faults
    if args.command == "table1" and args.budget is not None:
        kwargs["measurement_budget"] = args.budget
    trace_config = None
    traces = {}
    if getattr(args, "trace", False):
        from repro.obs import TraceConfig, parse_filter

        try:
            categories = parse_filter(getattr(args, "trace_filter", None))
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return EXIT_USAGE
        trace_config = TraceConfig(categories=categories)
        kwargs["trace"] = trace_config
        kwargs["traces"] = traces
    profile_config = None
    profiles = {}
    if getattr(args, "hotspots", False):
        from repro.obs import ProfileConfig, parse_profile_filter

        try:
            subsystems = parse_profile_filter(
                getattr(args, "hotspots_filter", None)
            )
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return EXIT_USAGE
        profile_config = ProfileConfig(subsystems=subsystems)
        kwargs["profile"] = profile_config
        kwargs["profiles"] = profiles
    phases = {}
    kwargs["phases"] = phases
    profile_memo = {}
    kwargs["profile_memo"] = profile_memo

    ledger_dir = None
    if not getattr(args, "no_ledger", False):
        ledger_dir = getattr(args, "ledger", None)
    # The cell cache is also the resume mechanism: a re-run against the
    # same cache replays every cell a killed run completed.
    cell_cache = None
    if not getattr(args, "no_cell_cache", False):
        cache_dir = getattr(args, "cell_cache", None)
        if cache_dir is None and ledger_dir is not None:
            cache_dir = os.path.join(ledger_dir, "cellcache")
        if cache_dir is not None:
            from repro.exec import CellCache

            cell_cache = CellCache(cache_dir)
            kwargs["cell_cache"] = cell_cache

    if getattr(args, "list_cells", False):
        from repro.exec import describe_plan

        # A --hotspots run recomputes every cell, so none is cached.
        print(describe_plan(_plan(args.command, kwargs),
                            None if profile_config is not None
                            else cell_cache,
                            trace=trace_config))
        return EXIT_OK

    run_id = None
    if ledger_dir is not None:
        from repro.obs import run_id_for

        module, values = _resolve(args.command, kwargs)
        config = _call_accepted(getattr(module, f"{args.command}_meta"),
                                values)
        run_id = run_id_for(args.command, config)
        kwargs["timings"] = {}

    # --jobs alone picks the backend (the runner calls backend_for):
    # 1 = the serial reference, N > 1 = the warm pool with N workers.
    jobs = getattr(args, "jobs", 1) or 1
    if jobs > 1:
        from repro.exec import SweepProgress

        kwargs["jobs"] = jobs
        kwargs["progress"] = SweepProgress(
            args.command, total=len(_plan(args.command, kwargs)),
            jobs=jobs, cell_cache=cell_cache,
        )

    import time

    started_at = time.time()
    tick = time.monotonic()
    result = runner(**kwargs)
    wall_s = time.monotonic() - tick
    print(result.format())

    merged_profile = None
    if profile_config is not None:
        from repro.obs import format_hotspots, merge_profiles

        merged_profile = merge_profiles(profiles)
        print()
        print(format_hotspots(merged_profile, top=10))

    trace_files = None
    if trace_config is not None:
        from repro.obs import write_trace_files

        trace_dir = args.trace_out
        if trace_dir is None:
            trace_dir = (os.path.join(ledger_dir, run_id)
                         if ledger_dir is not None else "traces")
        jsonl_path, chrome_path = write_trace_files(
            trace_dir, args.command, traces
        )
        trace_files = {"jsonl": jsonl_path, "chrome": chrome_path}
        print(f"trace: {jsonl_path} ({len(traces)} cell(s)); "
              f"perfetto: {chrome_path}", file=sys.stderr)

    if ledger_dir is not None:
        from repro.obs import build_manifest, write_manifest

        manifest = build_manifest(
            args.command, config, result,
            plan=_plan(args.command, kwargs),
            statuses=getattr(result, "cell_status", None),
            trace_files=trace_files,
            trace_root=os.path.join(ledger_dir, run_id),
            profile=merged_profile,
            timing={
                "wall_s": round(wall_s, 3),
                "started_at": round(started_at, 3),
                # Per-phase executor breakdown (schedule / ipc /
                # compute / cache_lookup / merge) — wall clock, so
                # volatile like the rest of this section.
                "phases": dict(phases),
                # Volatile by design (like everything in timing): a
                # pool run and the serial reference must compare clean,
                # whichever backend did the work.
                "backend": "pool" if jobs > 1 else "serial",
                "cells": {key: round(value, 6) for key, value
                          in kwargs["timings"].items()},
                "cell_cache": (
                    {"enabled": True, **cell_cache.stats()}
                    if cell_cache is not None else {"enabled": False}
                ),
                # Benign-profile replays (see execute_plan); a pool
                # run's counts depend on its batching.
                "profile_memo": dict(profile_memo),
            },
        )
        manifest_path = write_manifest(ledger_dir, manifest)
        print(f"ledger: {manifest_path} (run {manifest['run_id']})",
              file=sys.stderr)

    if faults is not None:
        print(f"\n{faults.summary()}")
    return EXIT_PARTIAL if getattr(result, "partial", False) else EXIT_OK


def cmd_profile(args):
    from repro.hid.io import save_samples
    from repro.hid.profiler import Profiler
    from repro.kernel import System
    from repro.workloads import get_workload

    system = System(seed=args.seed)
    system.install_binary(
        "/bin/w", get_workload(args.workload).build(iterations=1 << 28)
    )
    process = system.spawn("/bin/w")
    samples = Profiler(quantum=2000).profile(process, args.samples)
    count = save_samples(samples, args.output)
    print(f"wrote {count} windows x 56 events to {args.output}")
    return 0


def cmd_hotspots(args):
    """Self-profile the simulator (``repro hotspots``).

    Two modes: one workload under the ambient profiler (default), or a
    whole experiment sweep at quick scale with ``--experiment`` (each
    cell profiles itself; the per-cell snapshots merge
    deterministically).  Tables by default; ``--collapsed`` emits
    flamegraph.pl input, ``--json`` the merged snapshot.
    """
    from repro.obs import (
        ProfileConfig,
        Profiler,
        activate_profile,
        collapsed_stack,
        format_hotspots,
        merge_profiles,
        parse_profile_filter,
    )
    from repro.obs.prof import DEFAULT_TOP_BLOCKS

    try:
        subsystems = parse_profile_filter(args.filter)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    config = ProfileConfig(
        subsystems=subsystems,
        top_blocks=max(args.top, DEFAULT_TOP_BLOCKS),
    )

    if args.experiment:
        from repro.core.experiments import run_fig4, run_fig5, \
            run_fig6, run_hardening, run_table1

        runner = {
            "fig4": run_fig4,
            "fig5": run_fig5,
            "fig6": run_fig6,
            "table1": run_table1,
            "hardening": run_hardening,
        }[args.experiment]
        profiles = {}
        kwargs = {"seed": args.seed, "uarch": args.uarch,
                  "profile": config, "profiles": profiles}
        kwargs.update(QUICK_KNOBS[args.experiment])
        if args.jobs > 1:
            kwargs["jobs"] = args.jobs
        result = runner(**kwargs)
        # The experiment's own summary goes to stderr so stdout stays
        # clean for --collapsed / --json pipelines.
        print(result.format(), file=sys.stderr)
    else:
        from repro.kernel import System
        from repro.workloads import get_workload

        profiler = Profiler(config)
        with activate_profile(profiler):
            system = System(seed=args.seed, uarch=args.uarch)
            system.install_binary(
                "/bin/w",
                get_workload(args.workload).build(
                    iterations=args.iterations
                ),
            )
            system.spawn("/bin/w")
            system.run()
        profiles = {args.workload: profiler.snapshot()}

    if args.collapsed:
        sys.stdout.write(collapsed_stack(profiles, by=args.by))
        return EXIT_OK
    merged = merge_profiles(profiles)
    if args.json:
        import json

        print(json.dumps(merged, sort_keys=True, indent=1))
        return EXIT_OK
    print(format_hotspots(merged, top=args.top))
    return EXIT_OK


def cmd_trace(args):
    """Summarise one trace sink (``repro trace FILE``).

    Accepts the JSONL sink or the ``*.chrome.json`` Perfetto export
    (round-tripped back into records); ``--json`` emits the summary as
    machine-readable JSON.
    """
    from repro.obs import (
        TraceSchemaError,
        format_summary,
        read_trace,
        summarize,
    )

    if args.json and (not os.path.exists(args.file)
                      or os.path.getsize(args.file) == 0):
        # An untraced or not-yet-flushed run is an answerable question
        # in machine-readable mode, not an error: report zero records
        # so scripted callers can branch on the count.
        import json

        print(json.dumps({"experiment": None, "records": 0,
                          "cells": [], "spans": {}, "events": {},
                          "dangling": 0}, sort_keys=True, indent=1))
        return EXIT_OK
    try:
        header, records = read_trace(args.file)
    except OSError as exc:
        print(f"repro: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except (TraceSchemaError, ValueError) as exc:
        print(f"repro: invalid trace: {exc}", file=sys.stderr)
        return EXIT_FATAL
    if args.json:
        import json

        stats = summarize(records)
        payload = {
            "experiment": header.get("experiment"),
            "records": stats["records"],
            "cells": stats["cells"],
            "spans": stats["spans"],
            "events": stats["events"],
            "dangling": stats["dangling"],
        }
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        print(format_summary(header, records, top=args.top))
    return EXIT_OK


def _resolve_trace_path(manifest, label="jsonl"):
    """Locate one of a manifest's recorded trace sinks on disk.

    Tries the recorded path first (relative to the cwd the run used),
    then next to the manifest itself (the default layout).
    """
    info = (manifest.get("traces") or {}).get(label)
    if not info:
        return None
    path = info.get("path")
    if not path:
        return None
    base = os.path.dirname(manifest.get("__path__") or "")
    for candidate in (os.path.join(base, path), path,
                      os.path.join(base, os.path.basename(path))):
        if os.path.isfile(candidate):
            return candidate
    return None


def cmd_compare(args):
    """Diff two ledger runs (``repro compare RUN_A RUN_B``)."""
    from repro.obs import (
        TraceSchemaError,
        diff_count,
        diff_manifests,
        format_compare,
        load_manifest,
        localize_trace_divergence,
        read_jsonl,
    )

    try:
        manifest_a = load_manifest(args.run_a, ledger_dir=args.ledger)
        manifest_b = load_manifest(args.run_b, ledger_dir=args.ledger)
    except (OSError, ValueError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_FATAL

    sections = diff_manifests(manifest_a, manifest_b)
    trace_findings = None
    if not args.no_traces:
        path_a = _resolve_trace_path(manifest_a)
        path_b = _resolve_trace_path(manifest_b)
        if path_a and path_b:
            try:
                header_a, records_a = read_jsonl(path_a)
                header_b, records_b = read_jsonl(path_b)
            except (OSError, TraceSchemaError, ValueError) as exc:
                print(f"repro: skipping trace localisation: {exc}",
                      file=sys.stderr)
            else:
                trace_findings = localize_trace_divergence(
                    header_a, records_a, header_b, records_b
                )
    print(format_compare(manifest_a["run_id"], manifest_b["run_id"],
                         sections, trace_findings,
                         max_rows=args.max_rows))
    differs = diff_count(sections) > 0 or bool(trace_findings)
    return EXIT_GATE if differs else EXIT_OK


def cmd_gate(args):
    """Gate a run's headlines against expectation bands (exit 5 on
    regression)."""
    from repro.obs import (
        ExpectationsError,
        bands_for,
        check_headlines,
        format_gate,
        gate_passed,
        load_expectations,
        load_manifest,
    )

    try:
        manifest = load_manifest(args.run, ledger_dir=args.ledger)
        expectations = load_expectations(args.expectations)
        bands = bands_for(
            expectations, manifest["experiment"], profile=args.profile,
            uarch=(manifest.get("config") or {}).get("uarch"),
        )
    except (OSError, ValueError) as exc:
        # ExpectationsError is a ValueError: missing profile/experiment
        # coverage is a configuration fault, not a regression.
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_FATAL
    checks = check_headlines(manifest.get("headlines") or {}, bands)
    print(format_gate(manifest, args.profile, checks))
    return EXIT_OK if gate_passed(checks) else EXIT_GATE


def cmd_report(args):
    """Render a run manifest as a static HTML dashboard."""
    from repro.atomicio import atomic_write_text
    from repro.obs import (
        ExpectationsError,
        bands_for,
        check_headlines,
        load_expectations,
        load_manifest,
        render_html,
    )

    try:
        manifest = load_manifest(args.run, ledger_dir=args.ledger)
    except (OSError, ValueError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_FATAL

    checks = None
    profile = None
    expectations_path = args.expectations
    if expectations_path is None and os.path.isfile("expectations.json"):
        expectations_path = "expectations.json"
    if expectations_path is not None:
        try:
            expectations = load_expectations(expectations_path)
            bands = bands_for(
                expectations, manifest["experiment"],
                profile=args.profile,
                uarch=(manifest.get("config") or {}).get("uarch"),
            )
            checks = check_headlines(
                manifest.get("headlines") or {}, bands
            )
            profile = args.profile
        except (OSError, ExpectationsError) as exc:
            print(f"repro: report renders ungated: {exc}",
                  file=sys.stderr)

    out = args.html
    if out is None:
        out = os.path.join(
            os.path.dirname(manifest["__path__"]), "report.html"
        )
    atomic_write_text(out, render_html(manifest, checks=checks,
                                       profile=profile))
    print(f"report: {out}")
    return EXIT_OK


def cmd_smoke(args):
    """Resilience smoke (CI): sweep + calibration under injected faults.

    Exercises the whole stack in well under a minute: seeded fault
    injection degrading sweep cells, retry-with-backoff around covert
    channel calibration, and the partial-result exit code.
    """
    from repro.attack.calibrate import calibrate
    from repro.core.experiments import run_fig4
    from repro.core.resilience import FaultInjector

    faults = _build_faults(args)
    if faults is None:
        from repro.core.resilience import FAULT_KINDS

        faults = FaultInjector(
            seed=args.seed,
            rates={kind: 0.2 for kind in FAULT_KINDS},
            max_fires=2,
        )

    calibration = calibrate(seed=args.seed, faults=faults)
    retrier = calibrate.last_retrier
    attempts = len(retrier.last_call_attempts())
    print(f"calibration: threshold={calibration.threshold} after "
          f"{attempts} attempt(s), "
          f"{retrier.clock.elapsed:.1f}s virtual backoff")

    result = run_fig4(
        seed=args.seed, hosts=("basicmath",), classifier="lr",
        benign_per_host=40, attack_per_variant=16, variants=("v1",),
        faults=faults,
        jobs=getattr(args, "jobs", 1) or 1,
        uarch=getattr(args, "uarch", "inorder"),
    )
    print(result.format())
    print(f"\n{faults.summary()}")
    return EXIT_PARTIAL if result.partial else EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "engine", None):
        # Ambient, like the tracer: binds every Cpu constructed from
        # here on (and, via REPRO_ENGINE, every spawned worker), but
        # never enters a manifest or run id.
        from repro.cpu import set_engine_mode

        set_engine_mode(args.engine)
    handlers = {
        "attack": cmd_attack,
        "gadgets": cmd_gadgets,
        "disasm": cmd_disasm,
        "workloads": cmd_workloads,
        "fig4": cmd_experiment,
        "fig5": cmd_experiment,
        "fig6": cmd_experiment,
        "table1": cmd_experiment,
        "hardening": cmd_experiment,
        "profile": cmd_profile,
        "hotspots": cmd_hotspots,
        "smoke": cmd_smoke,
        "trace": cmd_trace,
        "compare": cmd_compare,
        "gate": cmd_gate,
        "report": cmd_report,
    }
    from repro.errors import (
        BudgetExceededError,
        ReproError,
        is_transient,
    )

    try:
        return handlers[args.command](args)
    except BudgetExceededError as exc:
        print(f"repro: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ReproError as exc:
        kind = "transient error (retries exhausted)" \
            if is_transient(exc) else "fatal error"
        print(f"repro: {kind}: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
