"""Command-line interface.

Subcommands:

  synth       generate a synthetic validation dataset (CSV files + manifest)
  preprocess  run only the GRF chain and write per-trial acceleration CSVs
  predict     run the session sweep and write per-start horizon summaries
  analyze     run the statistics layer on an existing metrics.csv
  run         everything end to end: load, sweep, metrics, statistics, export

run and analyze write bundle.json and every table (metrics, tests, fits,
levels, skips).

Exit codes: 0 on success, 1 for input errors (files, manifest, config),
2 for pipeline failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple, replace

from . import __version__
from .io import (
    InputError,
    ManifestError,
    RunConfig,
    format_row,
    load_config,
    load_manifest,
    read_csv_rows,
    timed_lines,
    write_dataset,
    write_table,
)
from .io import load_trial  # noqa: F401  perfbench/spans.py wraps this name here
from .metrics import MetricSummary
from .pipeline import (
    METRICS_HEADER,
    export_results,
    load_all_trials,
    loaded_entries,
    result_bundle,
    run_pipeline,
)
from .prediction import sweep_session
from .profiles import HorizonSpec, ProfileKind
from .synth import protocol_items


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 1), so
    they leave through `main` like every other error."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


# flag -> (the RunConfig key it overrides, its help text), in the order they apply
FLAGS = {
    "--profiles": ("profiles", "comma-separated profile names"),
    "--horizons": ("horizons_ms", "comma-separated horizon lengths in ms"),
    "--threads": ("threads", "workers, capped at the CPU count: sweep threads, and processes that load trials"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="compredict",
        description="Predict center-of-mass trajectories and evaluate them across horizons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, *flags):
        for flag in flags:
            p.add_argument(flag, help=FLAGS[flag][1])

    def add_session(p, *flags):
        p.add_argument("--config", help="run configuration file (key = value lines)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--manifest", required=True, help="trial manifest (JSON)")
        add_flags(p, *flags)

    p = sub.add_parser("synth", help="generate a synthetic validation dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", default="10")
    p.add_argument("--activities", default="14")
    p.add_argument("--repeats", default="3")
    p.add_argument("--dt", default="0.005")

    # each subcommand takes only the flags it reads
    sweep = ("--profiles", "--horizons", "--threads")
    add_session(sub.add_parser("preprocess", help="run the GRF chain only"), "--threads")
    add_session(sub.add_parser("predict", help="write per-horizon sweep summaries"), *sweep)
    add_session(sub.add_parser("run", help="full pipeline with all outputs"), *sweep)

    p = sub.add_parser("analyze", help="statistics from an existing metrics.csv")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--metrics-csv", required=True, dest="metrics_csv")
    p.add_argument("--out", required=True)
    return parser


def _load_effective_config(args) -> RunConfig:
    """The config file's lines and then the flags, each flag read as its
    config key's value would be, checked together as one RunConfig; an
    error names the file's line or the flag that set the key at fault."""
    texts = {flag: getattr(args, flag[2:], None) for flag in FLAGS}
    flags = [(flag, FLAGS[flag][0], text) for flag, text in texts.items() if text is not None]
    return load_config(getattr(args, "config", None), flags)


def _cmd_synth(args) -> int:
    def read(flag, kind, valid, rule):
        try:
            value = kind(getattr(args, flag))
        except ValueError:
            value = math.nan  # fails both checks
        if not valid(value):
            raise InputError(f"--{flag}: must be {rule}, got {getattr(args, flag)!r}")
        return value

    counts = [read(flag, int, lambda n: n >= 1, "an integer >= 1") for flag in ("subjects", "activities", "repeats")]
    dt = read("dt", float, lambda t: 0 < t < math.inf, "a positive finite number")
    try:
        items = protocol_items(*counts, dt)
    except ValueError as exc:  # a trial duration that is not a whole number of samples
        raise InputError(f"--dt: {exc}") from None
    manifest_path = write_dataset(args.out, items)
    print(f"wrote {len(items)} trials and {manifest_path}")
    return 0


def _cmd_preprocess(args) -> int:
    config = _load_effective_config(args)
    entries = load_manifest(args.manifest)
    names = {}  # acceleration file name -> the key of the trial that writes it, in load order
    for entry in entries:
        for activity_id in entry.trial_activities():
            key = f"{entry.subject_id}/{activity_id}/{entry.repeat_index}"
            name = f"{entry.subject_id}_{activity_id}_{entry.repeat_index}_accel.csv"
            if os.path.basename(name) != name or "\0" in name:
                raise ManifestError(f"{args.manifest}: trial {key}: file name {name!r} is not a single path component")
            if name in names:
                raise ManifestError(f"{args.manifest}: trials {names[name]} and {key} both name the file {name}")
            names[name] = key
    os.makedirs(args.out, exist_ok=True)
    loaded = (trial for trials, _ in loaded_entries(entries, config) for trial in trials)
    for trial, name in zip(loaded, names):
        path = os.path.join(args.out, name)
        write_table(path, ["time_s", "ax", "ay", "az"], timed_lines(trial.dt, trial.accel_inputs))
    print(f"wrote {len(names)} acceleration files to {args.out}")
    return 0


HORIZONS_HEADER = (
    "subject_id,activity_id,repeat_index,profile,horizon_ms,start_index,mean_error_m,max_error_m,direction_score"
).split(",")


def _cmd_predict(args) -> int:
    config = _load_effective_config(args)
    entries = load_manifest(args.manifest)
    trials, _ = load_all_trials(entries, config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "horizons.csv")

    def lines():
        # each trial's rows as soon as it is swept; each (trial, profile,
        # horizon) formats its shared cells once
        session = sweep_session(trials, config.horizon_specs(), config.profiles, threads=config.threads)
        for i, vectors in session:
            trial = trials[i]
            for p, profile in enumerate(config.profiles):
                for t_ms, (means, peaks, scores) in zip(config.horizons_ms, vectors):
                    prefix = format_row((trial.subject_id, trial.activity_id, trial.repeat_index, profile, t_ms))
                    rows = zip(range(means.shape[1]), means[p].tolist(), peaks[p].tolist(), scores[p].tolist())
                    yield from map(prefix.__add__, map(",%d,%r,%r,%d".__mod__, rows))

    write_table(path, HORIZONS_HEADER, lines())
    print(f"wrote {path}")
    return 0


def _export(bundle, args) -> int:
    """Write the bundle and its tables into --out: the tail of run and analyze."""
    written = export_results(bundle, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _load_effective_config(args)
    entries = load_manifest(args.manifest)
    if not entries:
        raise InputError(f"manifest {args.manifest} lists no trials")
    trials, notes = load_all_trials(entries, config)
    bundle = run_pipeline(config, trials)
    bundle.notes = notes + bundle.notes
    return _export(bundle, args)


def _metric_row(cells, dt: float) -> MetricSummary:
    """One `metrics.csv` row: a known profile, finite numbers, and a horizon
    that is a whole number of sample periods dt."""
    subject_id, profile, horizon_ms, ae, me, ada, mda = cells
    try:
        row = MetricSummary(
            subject_id=subject_id,
            profile=ProfileKind.parse(profile).value,
            horizon_ms=float(horizon_ms),
            ae=float(ae),
            me=float(me),
            ada=float(ada) if ada else None,
            mda=float(mda) if mda else None,
        )
        if not all(value is None or math.isfinite(value) for value in astuple(row)[2:]):
            raise ValueError("non-finite value")
    except ValueError:
        raise ValueError(
            f"malformed row {cells!r}; expected {','.join(METRICS_HEADER)} "
            "with a known profile and finite numeric values"
        ) from None
    try:
        HorizonSpec.from_duration(row.horizon_ms, dt)
    except ValueError as exc:
        raise ValueError(f"{exc}; dt = {dt:g} s is set with --config") from None
    return row


def _cmd_analyze(args) -> int:
    config = _load_effective_config(args)
    path = args.metrics_csv
    _, lines, metric_rows = read_csv_rows(path, [METRICS_HEADER], lambda cells: _metric_row(cells, config.dt))
    first_lines = {}  # (subject_id, profile, horizon_ms) -> the line that first gave it
    for line, row in zip(lines, metric_rows):
        first = first_lines.setdefault((row.subject_id, row.profile, row.horizon_ms), line)
        if first != line:
            raise InputError(f"{path}:{line}: row repeats the subject, profile and horizon of line {first}")
    if not metric_rows:
        raise InputError(f"{path}: no metric rows")
    horizons = tuple(sorted({r.horizon_ms for r in metric_rows}))
    profiles = tuple(dict.fromkeys(r.profile for r in metric_rows))
    config = replace(config, horizons_ms=horizons, profiles=profiles)
    return _export(result_bundle(config, metric_rows), args)


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "predict": _cmd_predict,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # --help and --version exit 0 here
        # No option takes a list, but argparse before Python 3.12 drops a value
        # of exactly "--" (``--horizons=--``) and stores []; give back the text.
        for name, value in vars(args).items():
            if isinstance(value, list):
                setattr(args, name, "--")
        # --out may not exist yet, but its nearest existing ancestor must be a directory
        existing = args.out
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise InputError(f"--out: {existing} exists and is not a directory")
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # single exit path for pipeline failures
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
