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
import os
import sys
from dataclasses import replace

from . import __version__
from .io import (
    DEFAULTS,
    ConfigError,
    InputError,
    RunConfig,
    load_config,
    load_manifest,
    load_trial,
    parse_value,
    timed_rows,
    write_dataset,
    write_table,
)
from .metrics import MetricSummary
from .pipeline import (
    METRICS_HEADER,
    ResultBundle,
    compute_statistics,
    export_results,
    export_table,
    load_all_trials,
    load_bundle,
    run_pipeline,
    sweep_trials,
)
from .profiles import ProfileKind
from .synth import protocol_items


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compredict",
        description="Predict center-of-mass trajectories and evaluate them across horizons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, manifest=True):
        p.add_argument("--config", help="run configuration file (key = value lines)")
        p.add_argument("--out", required=True, help="output directory")
        if manifest:
            p.add_argument("--manifest", required=True, help="trial manifest (JSON)")
        p.add_argument("--profiles", help="comma-separated profile names")
        p.add_argument("--horizons", help="comma-separated horizon lengths in ms")
        p.add_argument("--stride", help="samples between horizon starts")
        p.add_argument("--threads", help="worker threads")
        p.add_argument("--format", help="output format: csv or json")

    p = sub.add_parser("synth", help="generate a synthetic validation dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=10)
    p.add_argument("--activities", type=int, default=14)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--dt", type=float, default=0.005)

    add_common(sub.add_parser("preprocess", help="run the GRF chain only"))
    add_common(sub.add_parser("predict", help="write per-horizon sweep summaries"))
    add_common(sub.add_parser("metrics", help="write per-subject metric rows"))
    add_common(sub.add_parser("run", help="full pipeline with all outputs"))

    p = sub.add_parser("analyze", help="statistics from an existing metrics.csv")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--metrics-csv", required=True, dest="metrics_csv")
    p.add_argument("--out", required=True)
    p.add_argument("--format")

    p = sub.add_parser("report", help="re-export tables from a saved bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format")
    return parser


# flag -> the RunConfig key it overrides, in the order they apply
FLAG_KEYS = {
    "--profiles": "profiles",
    "--horizons": "horizons_ms",
    "--stride": "stride",
    "--threads": "threads",
    "--format": "out_format",
}


def _load_effective_config(args) -> RunConfig:
    """The config file or defaults under the flags, each read as its config
    key's value would be; a bad flag is a ConfigError that names it."""
    config = load_config(args.config) if getattr(args, "config", None) else DEFAULTS
    for flag, key in FLAG_KEYS.items():
        text = getattr(args, flag[2:], None)
        if text is not None:
            try:
                config = replace(config, **{key: parse_value(key, text)})
            except ConfigError as exc:
                raise ConfigError(f"{flag}: {exc}") from None
    return config


def _cmd_synth(args) -> int:
    items = protocol_items(
        n_subjects=args.subjects,
        n_activities=args.activities,
        n_repeats=args.repeats,
        dt=args.dt,
    )
    manifest_path = write_dataset(args.out, items)
    print(f"wrote {len(items)} trials and {manifest_path}")
    return 0


def _cmd_preprocess(args) -> int:
    config = _load_effective_config(args)
    entries = load_manifest(args.manifest)
    os.makedirs(args.out, exist_ok=True)
    count = 0
    for entry in entries:
        trials, _ = load_trial(entry, config)
        for trial in trials:
            path = os.path.join(
                args.out,
                f"{trial.subject_id}_{trial.activity_id}_{trial.repeat_index}_accel.csv",
            )
            write_table(path, ["time_s", "ax", "ay", "az"], timed_rows(trial.dt, trial.accel_inputs))
            count += 1
    print(f"wrote {count} acceleration files to {args.out}")
    return 0


HORIZONS_HEADER = [
    "subject_id",
    "activity_id",
    "repeat_index",
    "profile",
    "horizon_ms",
    "start_index",
    "mean_error_m",
    "max_error_m",
    "direction_score",
]


def _cmd_predict(args) -> int:
    config = _load_effective_config(args)
    entries = load_manifest(args.manifest)
    trials, _ = load_all_trials(entries, config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "horizons.csv")
    swept, shares = sweep_trials(config, trials)

    def rows():
        for i, trial in enumerate(trials):
            for profile in config.profiles:
                for t_ms in config.horizons_ms:
                    means, peaks, scores = (v[shares[t_ms][i]].tolist() for v in swept[profile][t_ms])
                    for row, (mean, peak, score) in enumerate(zip(means, peaks, scores)):
                        yield (
                            trial.subject_id,
                            trial.activity_id,
                            trial.repeat_index,
                            profile,
                            t_ms,
                            row * config.stride,
                            mean,
                            peak,
                            score,
                        )

    write_table(path, HORIZONS_HEADER, rows())
    print(f"wrote {path}")
    return 0


def _run_bundle(args, config: RunConfig) -> ResultBundle:
    entries = load_manifest(args.manifest)
    if not entries:
        raise InputError(f"manifest {args.manifest} lists no trials")
    trials, notes = load_all_trials(entries, config)
    bundle = run_pipeline(config, trials)
    bundle.notes = notes + bundle.notes
    return bundle


def _cmd_metrics(args) -> int:
    bundle = _run_bundle(args, _load_effective_config(args))
    os.makedirs(args.out, exist_ok=True)
    path = export_table(bundle, args.out, "metrics.csv")
    print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    config = _load_effective_config(args)
    bundle = _run_bundle(args, config)
    written = export_results(bundle, args.out, out_format=config.out_format)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _read_metrics_csv(path: str) -> list[MetricSummary]:
    rows = []
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
                            horizon_ms=float(horizon_ms),
                            ae=float(ae),
                            me=float(me),
                            ada=float(ada) if ada else None,
                            mda=float(mda) if mda else None,
                        )
                    )
                except ValueError:
                    raise InputError(
                        f"{path}:{reader.line_num}: malformed row {cells!r}; expected "
                        f"{','.join(METRICS_HEADER)} with a known profile and numeric metric values"
                    ) from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return rows


def _cmd_analyze(args) -> int:
    config = _load_effective_config(args)
    metric_rows = _read_metrics_csv(args.metrics_csv)
    if not metric_rows:
        raise InputError(f"{args.metrics_csv}: no metric rows")
    horizons = tuple(sorted({r.horizon_ms for r in metric_rows}))
    profiles = tuple(dict.fromkeys(r.profile for r in metric_rows))
    config = replace(config, horizons_ms=horizons, profiles=profiles)
    fit_rows, level_rows, stat_rows, notes = compute_statistics(metric_rows, config)
    bundle = ResultBundle(
        version=__version__,
        config=config.to_dict(),
        metric_rows=metric_rows,
        fit_rows=fit_rows,
        level_rows=level_rows,
        stat_rows=stat_rows,
        notes=notes,
    )
    written = export_results(bundle, args.out, out_format=config.out_format)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def _cmd_report(args) -> int:
    config = _load_effective_config(args)
    bundle = load_bundle(args.bundle)
    written = export_results(bundle, args.out, out_format=config.out_format)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


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
    args = _build_parser().parse_args(argv)
    # No option takes a list, but argparse before Python 3.12 drops a value
    # of exactly "--" (``--horizons=--``) and stores []; give back the text.
    for name, value in vars(args).items():
        if isinstance(value, list):
            setattr(args, name, "--")
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # single exit path for pipeline failures
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
