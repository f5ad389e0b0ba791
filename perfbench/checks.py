"""Output checks for every benchmark run, and fingerprints of the outputs.

A run that exits non-zero or whose outputs fail any check here counts as a
failed operation. The SHA-256 of every output table is reported, so a later
change can show whether its outputs moved at all: the project treats any
shift beyond the last ulp as a regression.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

METRICS_COLUMNS = ["subject_id", "profile", "horizon_ms", "ae_m", "me_m", "ada", "mda"]
RUN_TABLES = ("metrics.csv", "tests.csv", "fits.csv", "levels.csv", "skips.csv", "bundle.json")
ACCEL_HEADER = "time_s,ax,ay,az"


def check_metrics_csv(path: str, subjects: int, profiles, horizons) -> list[str]:
    """Problems found in one metrics.csv; an empty list means it passed.

    Checks the full subject x profile x horizon grid, finite values,
    ae <= me, mda <= ada, and that the oracle's ae is below the zero
    profile's for every subject and horizon.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    if header != METRICS_COLUMNS:
        return [f"{path}: header {header} is not {METRICS_COLUMNS}"]
    problems = []
    expected = subjects * len(profiles) * len(horizons)
    if len(rows) != expected:
        problems.append(f"{path}: {len(rows)} rows, expected {subjects} x {len(profiles)} x {len(horizons)} = {expected}")
    ae = {}
    for lineno, row in enumerate(rows, start=2):
        try:
            subject, profile, horizon = row[0], row[1], float(row[2])
            values = [float(v) for v in row[3:]]
        except (IndexError, ValueError):
            problems.append(f"{path}:{lineno}: unparsable row {row!r}")
            continue
        if len(values) != 4 or not all(math.isfinite(v) for v in values):
            problems.append(f"{path}:{lineno}: missing or non-finite value in {row!r}")
            continue
        row_ae, row_me, row_ada, row_mda = values
        if row_ae > row_me:
            problems.append(f"{path}:{lineno}: ae {row_ae!r} > me {row_me!r}")
        if row_mda > row_ada:
            problems.append(f"{path}:{lineno}: mda {row_mda!r} > ada {row_ada!r}")
        key = (subject, profile, horizon)
        if key in ae:
            problems.append(f"{path}:{lineno}: duplicate row for {key}")
        ae[key] = row_ae
    seen_subjects = sorted({k[0] for k in ae})
    if len(seen_subjects) != subjects:
        problems.append(f"{path}: {len(seen_subjects)} subjects, expected {subjects}")
    for subject in seen_subjects:
        for horizon in horizons:
            oracle = ae.get((subject, "oracle", float(horizon)))
            zero = ae.get((subject, "zero", float(horizon)))
            if oracle is None or zero is None:
                problems.append(f"{path}: no oracle/zero rows for {subject} at {horizon} ms")
            elif not oracle < zero:
                problems.append(f"{path}: oracle ae {oracle!r} >= zero ae {zero!r} for {subject} at {horizon} ms")
    return problems


def check_accel_dir(out_dir: str, files: int, rows: int) -> list[str]:
    """Problems in `preprocess` output: file count, headers, row total, finiteness."""
    try:
        names = sorted(n for n in os.listdir(out_dir) if n.endswith("_accel.csv"))
    except OSError as exc:
        return [f"cannot list {out_dir}: {exc}"]
    problems = []
    if len(names) != files:
        problems.append(f"{out_dir}: {len(names)} acceleration files, expected {files}")
    total = 0
    for name in names:
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != ACCEL_HEADER:
            problems.append(f"{name}: header is not {ACCEL_HEADER}")
            continue
        total += len(lines) - 1
        try:
            values = [float(v) for line in lines[1:] for v in line.split(",")]
        except ValueError:
            problems.append(f"{name}: non-numeric value")
            continue
        if len(values) != 4 * (len(lines) - 1) or not all(math.isfinite(v) for v in values):
            problems.append(f"{name}: missing or non-finite value")
    if total != rows:
        problems.append(f"{out_dir}: {total} acceleration rows, expected {rows}")
    return problems


def fingerprints(out_dir: str, accel: bool) -> dict[str, str]:
    """SHA-256 of each output table; `preprocess` output is hashed as one
    table, the files in name order."""
    if accel:
        digest = hashlib.sha256()
        for name in sorted(n for n in os.listdir(out_dir) if n.endswith("_accel.csv")):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                digest.update(fh.read())
        return {"accel/*.csv": digest.hexdigest()}
    out = {}
    for name in RUN_TABLES:
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            out[name] = "missing"
    return out
