"""Command-line interface.

Subcommands:

  synth       generate a synthetic validation dataset (CSV files + manifest)
  preprocess  run only the GRF chain and write per-trial acceleration CSVs
  predict     run the session sweep and write per-start horizon summaries
  metrics     compute per-subject metric rows only
  analyze     run the statistics layer on an existing metrics.csv
  run         everything end to end: load, sweep, metrics, statistics, export
  report      re-export the tables from a saved bundle.json

Exit codes: 0 on success, 1 for input errors (files, manifest, config),
2 for pipeline failures.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

from . import __version__
from .io import (
    DEFAULTS,
    ConfigError,
    InputError,
    ManifestError,
    RunConfig,
    format_row,
    load_config,
    load_manifest,
    parse_value,
    timed_lines,
    write_dataset,
    write_table,
)
from .io import load_trial  # noqa: F401  perfbench/spans.py wraps this name here
from .metrics import MetricSummary
from .pipeline import (
    METRICS_HEADER,
    export_results,
    export_table,
    load_all_trials,
    load_bundle,
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
    "--stride": ("stride", "samples between horizon starts"),
    "--threads": ("threads", "workers, capped at the CPU count: sweep threads, and processes that load trials"),
    "--format": ("out_format", "output format: csv or json"),
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
    sweep = ("--profiles", "--horizons", "--stride", "--threads")
    add_session(sub.add_parser("preprocess", help="run the GRF chain only"), "--threads")
    add_session(sub.add_parser("predict", help="write per-horizon sweep summaries"), *sweep)
    add_session(sub.add_parser("metrics", help="write per-subject metric rows"), *sweep)
    add_session(sub.add_parser("run", help="full pipeline with all outputs"), *sweep, "--format")

    p = sub.add_parser("analyze", help="statistics from an existing metrics.csv")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--metrics-csv", required=True, dest="metrics_csv")
    p.add_argument("--out", required=True)
    add_flags(p, "--format")

    p = sub.add_parser("report", help="re-export tables from a saved bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    add_flags(p, "--format")
    return parser


def _load_effective_config(args) -> RunConfig:
    """The config file or defaults under the flags, each read as its config
    key's value would be; a bad flag is a ConfigError that names it."""
    config = load_config(args.config) if getattr(args, "config", None) else DEFAULTS
    for flag, (key, _) in FLAGS.items():
        text = getattr(args, flag[2:], None)
        if text is not None:
            try:
                config = replace(config, **{key: parse_value(key, text)})
            except ConfigError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
    return config


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
        session = sweep_session(trials, config.horizon_specs(), config.profiles, config.stride, config.threads)
        for i, vectors in session:
            trial = trials[i]
            for p, profile in enumerate(config.profiles):
                for t_ms, (means, peaks, scores) in zip(config.horizons_ms, vectors):
                    prefix = format_row((trial.subject_id, trial.activity_id, trial.repeat_index, profile, t_ms))
                    starts = range(0, means.shape[1] * config.stride, config.stride)
                    rows = zip(starts, means[p].tolist(), peaks[p].tolist(), scores[p].tolist())
                    yield from map(prefix.__add__, map(",%d,%r,%r,%d".__mod__, rows))

    write_table(path, HORIZONS_HEADER, lines())
    print(f"wrote {path}")
    return 0


def _run_bundle(args, config: RunConfig):
    entries = load_manifest(args.manifest)
    if not entries:
        raise InputError(f"manifest {args.manifest} lists no trials")
    trials, notes = load_all_trials(entries, config)
    bundle = run_pipeline(config, trials)
    bundle.notes = notes + bundle.notes
    return bundle


def _export(bundle, args, config: RunConfig) -> int:
    """Write the bundle into --out in the configured format: the tail of run, analyze and report."""
    written = export_results(bundle, args.out, out_format=config.out_format)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    bundle = _run_bundle(args, _load_effective_config(args))
    os.makedirs(args.out, exist_ok=True)
    path = export_table(bundle, args.out, "metrics.csv")
    print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    config = _load_effective_config(args)
    return _export(_run_bundle(args, config), args, config)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _read_metrics_csv(path: str, dt: float) -> list[MetricSummary]:
    rows = []
    first_lines = {}  # (subject_id, profile, horizon_ms) -> the line that first gave it
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != METRICS_HEADER:
                raise InputError(f"{path}: header {header} does not match {METRICS_HEADER}")
            for cells in reader:
                if not cells:
                    continue
                try:
                    subject_id, profile, horizon_ms, ae, me, ada, mda = cells
                    rows.append(
                        MetricSummary(
                            subject_id=subject_id,
                            profile=ProfileKind.parse(profile).value,
                            horizon_ms=_finite(horizon_ms),
                            ae=_finite(ae),
                            me=_finite(me),
                            ada=_finite(ada) if ada else None,
                            mda=_finite(mda) if mda else None,
                        )
                    )
                except ValueError:
                    raise InputError(
                        f"{path}:{reader.line_num}: malformed row {cells!r}; expected "
                        f"{','.join(METRICS_HEADER)} with a known profile and finite numeric values"
                    ) from None
                try:
                    HorizonSpec.from_duration(rows[-1].horizon_ms, dt)
                except ValueError as exc:
                    raise InputError(f"{path}:{reader.line_num}: {exc}; dt = {dt:g} s is set with --config") from None
                key = (rows[-1].subject_id, rows[-1].profile, rows[-1].horizon_ms)
                if key in first_lines:
                    raise InputError(
                        f"{path}:{reader.line_num}: {cells!r} repeats the subject, profile and horizon "
                        f"of line {first_lines[key]}"
                    )
                first_lines[key] = reader.line_num
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return rows


def _cmd_analyze(args) -> int:
    config = _load_effective_config(args)
    metric_rows = _read_metrics_csv(args.metrics_csv, config.dt)
    if not metric_rows:
        raise InputError(f"{args.metrics_csv}: no metric rows")
    horizons = tuple(sorted({r.horizon_ms for r in metric_rows}))
    profiles = tuple(dict.fromkeys(r.profile for r in metric_rows))
    config = replace(config, horizons_ms=horizons, profiles=profiles)
    return _export(result_bundle(config, metric_rows), args, config)


def _cmd_report(args) -> int:
    config = _load_effective_config(args)
    return _export(load_bundle(args.bundle), args, config)


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "predict": _cmd_predict,
    "metrics": _cmd_metrics,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
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
