"""Plain-text rendering of experiment results (tables + series).

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep that output consistent.
"""


def format_table(headers, rows, title=None):
    """Render an aligned ASCII table."""
    columns = [list(map(str, col)) for col in zip(headers, *rows)]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        str(h).ljust(w) for h, w in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(
            str(cell).ljust(w) for cell, w in zip(row, widths)
        ))
    return "\n".join(lines)


def format_series(name, values, fmt="{:.1f}"):
    """One figure line: ``name: v1 v2 v3 ...``."""
    rendered = " ".join(fmt.format(v) for v in values)
    return f"{name}: {rendered}"


def format_percent(value):
    return f"{100.0 * value:.1f}%"


def format_cell_status(statuses, title="sweep cells"):
    """Render a sweep's per-cell status block (resilient reporting).

    ``statuses`` maps cell key → ``{"status": ..., "error": ...}`` as
    produced by :func:`repro.exec.execute_plan`.  Failed cells
    show their error chain, so a partially-failed sweep still emits a
    usable report instead of crashing.
    """
    if not statuses:
        return ""
    lines = [f"{title}:"]
    for key in sorted(statuses):
        cell = statuses[key]
        status = cell.get("status", "?")
        line = f"  [{status:>6}] {key}"
        error = cell.get("error")
        if error:
            line += f"  — {error}"
        lines.append(line)
    return "\n".join(lines)


def append_status_section(text, statuses, partial):
    """Attach the cell-status block (and a partial banner) to a report."""
    if not statuses:
        return text
    block = format_cell_status(statuses)
    if partial:
        block += (
            "\nWARNING: partial results — one or more cells failed; "
            "values above cover the completed cells only."
        )
    return f"{text}\n{block}"


def append_metrics_section(text, cell_metrics, title="cell metrics"):
    """Attach per-cell metric headlines to a report (``--trace`` runs).

    ``cell_metrics`` maps cell key → a metrics snapshot as produced by
    :meth:`repro.obs.MetricsRegistry.snapshot`.  Untraced runs pass an
    empty dict and the report is returned unchanged, byte-identical to
    historical output.
    """
    from repro.obs.metrics import format_metrics_line

    if not cell_metrics:
        return text
    lines = [f"{title}:"]
    for key in sorted(cell_metrics):
        rendered = format_metrics_line(cell_metrics[key]) or "-"
        lines.append(f"  {key}: {rendered}")
    return f"{text}\n" + "\n".join(lines)


def format_duration(seconds):
    """Compact human wall-clock rendering (``850ms``, ``12.3s``, ``2m05s``)."""
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 60.0:
        return f"{seconds:.1f}s"
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rest:02.0f}s"


def format_progress(experiment, done, total, key, status, elapsed,
                    eta_seconds=None, metrics=None, rate=None, cache=None):
    """One live sweep-progress line (``repro.exec`` cell completions).

    *metrics* (a pre-rendered ``cycles=… miss=…`` string) rides along
    when the sweep traces, so the stderr stream doubles as a coarse
    per-cell cost profile.  *rate* is observed throughput in cells/s;
    *cache* is a pre-rendered ``hits/lookups`` cell-cache ratio.
    """
    line = (f"[{experiment} {done}/{total}] {status:>6} {key} "
            f"({format_duration(elapsed)})")
    if metrics:
        line += f"  [{metrics}]"
    if rate is not None:
        line += f"  {rate:.0f} cells/s" if rate >= 10 \
            else f"  {rate:.2f} cells/s"
    if cache is not None:
        line += f"  cache {cache}"
    if eta_seconds is not None and done < total:
        line += f"  eta ~{format_duration(eta_seconds)}"
    return line


def sparkline(values, lo=None, hi=None):
    """Tiny unicode trend strip for accuracy-vs-attempt series."""
    blocks = "▁▂▃▄▅▆▇█"
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = (hi - lo) or 1.0
    return "".join(
        blocks[min(len(blocks) - 1,
                   int((value - lo) / span * (len(blocks) - 1)))]
        for value in values
    )
