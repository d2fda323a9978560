"""Trace persistence: CSV import/export for profiler samples & datasets.

Lets a campaign's HPC traces be collected once and re-analysed offline
(different feature sets, different detectors) — the workflow the paper
describes for its 56-event offline recording.
"""

import csv
import io

from repro.atomicio import atomic_write_text
from repro.cpu.pmu import EVENT_NAMES
from repro.errors import HidError
from repro.hid.samples import Sample

_META_COLUMNS = ("process_name", "label")


def save_samples(samples, path):
    """Write profiler samples to CSV (one row per window, 56 events).

    The write is atomic (temp + rename): a killed profiling run never
    leaves a truncated trace file.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(_META_COLUMNS) + list(EVENT_NAMES))
    for sample in samples:
        writer.writerow(
            [sample.process_name, sample.label]
            + [sample.events.get(name, 0) for name in EVENT_NAMES]
        )
    atomic_write_text(path, buffer.getvalue())
    return len(samples)


def samples_to_records(samples):
    """Profiler samples → plain JSON-serialisable dicts (cell values)."""
    return [
        {
            "process_name": sample.process_name,
            "label": int(sample.label),
            "events": {k: float(v) for k, v in sample.events.items()},
        }
        for sample in samples
    ]


def samples_from_records(records):
    """Inverse of :func:`samples_to_records`."""
    return [
        Sample(
            process_name=record["process_name"],
            label=int(record["label"]),
            events=dict(record["events"]),
        )
        for record in records
    ]


def load_samples(path):
    """Read samples back from CSV written by :func:`save_samples`."""
    samples = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise HidError(f"{path}: empty trace file")
        expected = list(_META_COLUMNS) + list(EVENT_NAMES)
        if header != expected:
            raise HidError(
                f"{path}: header mismatch (expected {len(expected)} "
                f"columns incl. the 56 PMU events, got {len(header)})"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(expected):
                raise HidError(f"{path}: malformed row of {len(row)} cells")
            events = {
                name: float(value)
                for name, value in zip(EVENT_NAMES, row[2:])
            }
            samples.append(Sample(
                process_name=row[0],
                label=int(row[1]),
                events=events,
            ))
    return samples


def save_dataset(dataset, path):
    """Write a feature-selected Dataset to CSV (atomically)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["label"] + list(dataset.feature_names))
    for row, label in zip(dataset.X, dataset.y):
        writer.writerow([int(label)] + [float(v) for v in row])
    atomic_write_text(path, buffer.getvalue())
    return len(dataset)


def load_dataset(path):
    """Read a Dataset written by :func:`save_dataset`."""
    from repro.hid.dataset import Dataset

    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise HidError(f"{path}: empty dataset file")
        if not header or header[0] != "label":
            raise HidError(f"{path}: not a dataset file")
        feature_names = tuple(header[1:])
        X, y = [], []
        for row in reader:
            if not row:
                continue
            y.append(int(row[0]))
            X.append([float(v) for v in row[1:]])
    if not X:
        raise HidError(f"{path}: dataset has no rows")
    return Dataset(X, y, feature_names)
