"""End-to-end orchestration: trials -> sweeps -> metrics -> statistics.

`loaded_entries` loads the manifest's entries in order, on forked worker
processes when the run has two or more workers, so `scipy.signal` is
imported only by them and the process that sweeps the session stays small.

`run_pipeline` sweeps the whole session at once with every profile and
horizon (`prediction.sweep_session`), which hands each trial's per-start
mean error, max error and score over as soon as the trial is swept. Each
trial is reduced at once into its (subject, profile, horizon) groups of
per-trial values, and each group into one metric row (`summarize`).
`compute_statistics` groups the metric rows' values by (metric, profile,
horizon) once and runs the trend fits and the per-horizon tests on them.
Blocks may run on a thread pool, but trials come back in order and every
output row is produced in a fixed sorted order, so a run's outputs are
byte-identical regardless of thread count. Trials too short for a horizon
are skipped with a reason instead of aborting the run.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import defaultdict
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from . import __version__
from .analysis import (
    DegenerateVarianceError,
    bonferroni,
    cohens_d,
    confidence_interval,
    trend_cascade,
    welch_anova,
    welch_t_test,
)
from .io import InputError, RunConfig, format_row, load_trial, write_table
from .metrics import MetricSummary, Tally, summarize
from .prediction import Trial, TrialTooShortError, sweep_session
from .prediction import sweep_errors  # noqa: F401  perfbench/spans.py wraps this name here
from .profiles import ProfileKind

METRIC_NAMES = ("ae", "me", "ada", "mda")


class PipelineError(Exception):
    """Internal failure while running the pipeline; CLI exit code 2."""


@dataclass(frozen=True)
class SkipRow:
    subject_id: str
    activity_id: str
    repeat_index: int
    horizon_ms: float
    reason: str


@dataclass(frozen=True)
class FitRow:
    """One polynomial fit of a metric against horizon length (ms)."""

    metric: str
    profile: str
    degree: int
    selected: bool
    coefficients: tuple
    r_squared: float
    degenerate: bool = False


@dataclass(frozen=True)
class LevelRow:
    """Per-(metric, profile, horizon) sample mean and 95% CI across subjects."""

    metric: str
    profile: str
    horizon_ms: float
    mean: float
    ci_low: float
    ci_high: float
    n: int


@dataclass(frozen=True)
class StatRow:
    """One test outcome.

    comparison is 'anova', a 'profileA-profileB' pair (per-horizon tests,
    horizon_ms set), or 'profile:cubic-vs-quadratic' style for the trend
    F-tests (horizon_ms is None there).
    """

    metric: str
    horizon_ms: float | None
    comparison: str
    statistic: float | None
    df1: float | None
    df2: float | None
    p_value: float | None
    adjusted_p: float | None = None
    effect_size: float | None = None
    note: str = ""


@dataclass
class ResultBundle:
    """Everything a run produces, in plain serializable types."""

    version: str
    config: dict
    metric_rows: list = field(default_factory=list)
    fit_rows: list = field(default_factory=list)
    level_rows: list = field(default_factory=list)
    stat_rows: list = field(default_factory=list)
    skip_rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _load_entry(entry, config: RunConfig):
    # the pool pickles this function by name; it looks `load_trial` up when
    # called, so a worker runs the `load_trial` this module held at the fork
    return load_trial(entry, config)


def loaded_entries(entries, config: RunConfig):
    """Each manifest entry's (trials, notes) from `load_trial`, in order.

    With two or more workers (`config.threads`, capped at the entry count
    and the CPU count) and the fork start method, entries load on a pool of
    forked processes: parsing and the GRF chain, and with it the
    `scipy.signal` import, stay out of the caller. Otherwise they load in
    the caller. Either way the first failing entry's error is raised, and
    no worker outlives the iterator.
    """
    workers = min(config.threads, len(entries), os.cpu_count() or 1)
    if workers >= 2:
        # imported here, so a run that loads in the caller never pays for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            # fork, not spawn: loading runs before any sweep thread starts, and
            # a forked worker starts with the caller's imports instead of
            # redoing them
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                yield from pool.map(_load_entry, entries, itertools.repeat(config))
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
            return
    for entry in entries:
        yield load_trial(entry, config)


def load_all_trials(entries, config: RunConfig):
    """Load every manifest entry; returns (trials, notes)."""
    trials: list[Trial] = []
    notes: list[str] = []
    for built, entry_notes in loaded_entries(entries, config):
        trials.extend(built)
        notes.extend(entry_notes)
    return trials, notes


def run_pipeline(config: RunConfig, trials) -> ResultBundle:
    """Compute metric rows and the statistics layer for a set of trials."""
    if not trials:
        raise PipelineError("no trials to process")
    bundle = ResultBundle(version=__version__, config=config.to_dict())
    specs = config.horizon_specs()

    # (subject, profile index, horizon index) -> each trial's Tally of mean
    # errors, max error and Tally of scores, each as {activity: {repeat: value}}
    groups = {}
    for i, vectors in sweep_session(trials, specs, config.profiles, config.stride, config.threads):
        trial = trials[i]
        # per horizon the trial fits, its start count and each profile's sum
        # of means (a row's sum is the np.sum of that row bit for bit), max
        # and sum of scores
        sums = [
            (j, m.shape[1], m.sum(axis=1).tolist(), x.max(axis=1).tolist(), s.sum(axis=1).tolist())
            for j, (m, x, s) in enumerate(vectors)
            if m.size
        ]
        del vectors  # before the next trial is swept
        for j, n, totals, peaks, hits in sums:
            for p in range(len(config.profiles)):
                means, maxima, scores = groups.setdefault((trial.subject_id, p, j), ({}, {}, {}))
                means.setdefault(trial.activity_id, {})[trial.repeat_index] = Tally(totals[p], n)
                maxima.setdefault(trial.activity_id, {})[trial.repeat_index] = peaks[p]
                if not trial.is_static:
                    scores.setdefault(trial.activity_id, {})[trial.repeat_index] = Tally(hits[p], n)

    # fixed-order per-subject metric rows; a subject none of whose trials
    # fits a horizon has no row for it
    for (subject, p, j), grouped in sorted(groups.items()):
        profile, t_ms = config.profiles[p], config.horizons_ms[j]
        bundle.metric_rows.append(summarize(subject, profile, t_ms, *grouped, aggregation=config.aggregation))
    for subject in sorted({t.subject_id for t in trials}):
        for t_ms, spec in zip(config.horizons_ms, specs):
            for trial in trials:
                if trial.subject_id == subject and trial.n_samples < spec.n_samples:
                    reason = str(TrialTooShortError.for_horizon(trial, spec))
                    bundle.skip_rows.append(SkipRow(subject, trial.activity_id, trial.repeat_index, t_ms, reason))

    fit_rows, level_rows, stat_rows, stat_notes = compute_statistics(bundle.metric_rows, config)
    bundle.fit_rows.extend(fit_rows)
    bundle.level_rows.extend(level_rows)
    bundle.stat_rows.extend(stat_rows)
    bundle.notes.extend(stat_notes)
    return bundle


def compute_statistics(metric_rows, config: RunConfig):
    """Trend fits with CIs per (metric, profile), then per-horizon Welch
    ANOVA across profiles with gated post-hoc pairwise tests."""
    fit_rows: list[FitRow] = []
    level_rows: list[LevelRow] = []
    stat_rows: list[StatRow] = []
    notes: list[str] = []

    n_subjects = len({r.subject_id for r in metric_rows})
    if n_subjects < 2:
        notes.append("insufficient subjects for inference (n < 2); statistics skipped")
        return fit_rows, level_rows, stat_rows, notes

    # (metric, profile, horizon) -> its values, in subject order
    grouped = defaultdict(list)
    for row in sorted(metric_rows, key=lambda r: r.subject_id):
        for metric in METRIC_NAMES:
            value = getattr(row, metric)
            if value is not None:
                grouped[metric, row.profile, row.horizon_ms].append(value)

    for metric in METRIC_NAMES:
        for profile in config.profiles:
            levels = []
            for t_ms in config.horizons_ms:
                values = grouped[metric, profile, t_ms]
                if len(values) >= 2:
                    levels.append((t_ms, values))
                    low, high = confidence_interval(values)
                    level_rows.append(
                        LevelRow(
                            metric=metric,
                            profile=profile,
                            horizon_ms=t_ms,
                            mean=float(np.mean(values)),
                            ci_low=low,
                            ci_high=high,
                            n=len(values),
                        )
                    )
            if len(levels) < 4:
                notes.append(f"{metric}/{profile}: too few horizon levels for trend fits")
                continue
            cascade = trend_cascade(levels, alpha=config.alpha)
            for degree, fit in sorted(cascade.fits.items()):
                fit_rows.append(
                    FitRow(
                        metric=metric,
                        profile=profile,
                        degree=degree,
                        selected=degree == cascade.selected_degree,
                        coefficients=tuple(float(c) for c in fit.coefficients),
                        r_squared=fit.r_squared,
                        degenerate=fit.degenerate_weights,
                    )
                )
            stat_rows.append(
                _test_row(metric, f"{profile}:cubic-vs-quadratic", cascade.cubic_vs_quadratic)
            )
            if cascade.quadratic_vs_linear is not None:
                stat_rows.append(
                    _test_row(metric, f"{profile}:quadratic-vs-linear", cascade.quadratic_vs_linear)
                )

    oracle = ProfileKind.ORACLE.value
    plain = [p for p in config.profiles if p != oracle]
    plain_pairs = [(a, b) for i, a in enumerate(plain) for b in plain[i + 1 :]]
    oracle_pairs = [(oracle, p) for p in plain] if oracle in config.profiles else []

    for metric in METRIC_NAMES:
        for t_ms in config.horizons_ms:
            groups = {p: grouped[metric, p, t_ms] for p in config.profiles}
            usable = {p: v for p, v in groups.items() if len(v) >= 2}
            if len(usable) < 2:
                continue
            try:
                anova = welch_anova(list(usable.values()))
            except DegenerateVarianceError as exc:
                stat_rows.append(
                    StatRow(metric, t_ms, "anova", None, None, None, None, note=str(exc))
                )
                continue
            stat_rows.append(
                StatRow(
                    metric,
                    t_ms,
                    "anova",
                    anova.statistic,
                    float(anova.df[0]),
                    float(anova.df[1]),
                    anova.p_value,
                )
            )
            if anova.p_value > config.alpha:
                continue  # post-hoc tests only after a significant main effect
            for family in (plain_pairs, oracle_pairs):
                pairs = [(a, b) for a, b in family if a in usable and b in usable]
                rows = []
                for a, b in pairs:
                    try:
                        test = welch_t_test(usable[a], usable[b])
                        effect = cohens_d(usable[a], usable[b], variant=config.cohens_d_variant)
                    except DegenerateVarianceError as exc:
                        rows.append(
                            StatRow(metric, t_ms, f"{a}-{b}", None, None, None, None, note=str(exc))
                        )
                        continue
                    rows.append(
                        StatRow(
                            metric,
                            t_ms,
                            f"{a}-{b}",
                            test.statistic,
                            float(test.df),
                            None,
                            test.p_value,
                            effect_size=effect,
                        )
                    )
                # the family's size, raised to the number of pairs tested
                m = max(config.bonferroni_m or len(pairs), sum(row.p_value is not None for row in rows))
                for row in rows:
                    if row.p_value is not None:
                        row = replace(row, adjusted_p=bonferroni([row.p_value], m)[0])
                    stat_rows.append(row)
    return fit_rows, level_rows, stat_rows, notes


def _test_row(metric: str, comparison: str, test) -> StatRow:
    df1, df2 = test.df if isinstance(test.df, tuple) else (test.df, None)
    return StatRow(
        metric=metric,
        horizon_ms=None,
        comparison=comparison,
        statistic=test.statistic,
        df1=float(df1),
        df2=float(df2) if df2 is not None else None,
        p_value=test.p_value,
        note="perfect fit" if test.perfect_fit else "",
    )


# ---------------------------------------------------------------------------
# serialization

METRICS_HEADER = ["subject_id", "profile", "horizon_ms", "ae_m", "me_m", "ada", "mda"]


# file name -> (header, bundle -> rows), in export order; a table whose
# columns are its rows' fields in order takes each row's fields as they are
TABLES = {
    "metrics.csv": (METRICS_HEADER, lambda b: map(astuple, b.metric_rows)),
    "tests.csv": (
        ["metric", "horizon_ms", "comparison", "statistic", "df1", "df2", "p_value", "adjusted_p", "cohens_d", "note"],
        lambda b: map(astuple, b.stat_rows),
    ),
    "fits.csv": (
        ["metric", "profile", "degree", "selected", "c0", "c1", "c2", "c3", "r_squared", "degenerate"],
        lambda b: [
            (
                r.metric,
                r.profile,
                r.degree,
                r.selected,
                *(list(r.coefficients) + [None] * (4 - len(r.coefficients))),
                r.r_squared,
                r.degenerate,
            )
            for r in b.fit_rows
        ],
    ),
    "levels.csv": (
        ["metric", "profile", "horizon_ms", "mean", "ci_low", "ci_high", "n"],
        lambda b: map(astuple, b.level_rows),
    ),
    "skips.csv": (
        ["subject_id", "activity_id", "repeat_index", "horizon_ms", "reason"],
        lambda b: [
            (r.subject_id, r.activity_id, r.repeat_index, r.horizon_ms, r.reason.replace(",", ";"))
            for r in b.skip_rows
        ],
    ),
}


def export_table(bundle: ResultBundle, out_dir: str, name: str) -> str:
    """Write one of the TABLES from the bundle into out_dir; returns its path."""
    header, rows = TABLES[name]
    path = os.path.join(out_dir, name)
    write_table(path, header, map(format_row, rows(bundle)))
    return path


def export_results(bundle: ResultBundle, out_dir: str, out_format: str = "csv") -> list[str]:
    """Write the bundle: JSON always, plus the CSV tables unless json-only.

    Outputs are deterministic: fixed row order, fixed float formatting.
    Returns the list of files written.
    """
    os.makedirs(out_dir, exist_ok=True)
    bundle_path = os.path.join(out_dir, "bundle.json")
    with open(bundle_path, "w", encoding="utf-8") as fh:
        json.dump(asdict(bundle), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if out_format == "json":
        return [bundle_path]
    return [bundle_path] + [export_table(bundle, out_dir, name) for name in TABLES]


def bundle_from_dict(data: dict) -> ResultBundle:
    return ResultBundle(
        version=data["version"],
        config=data["config"],
        metric_rows=[MetricSummary(**r) for r in data["metric_rows"]],
        fit_rows=[
            FitRow(**{**r, "coefficients": tuple(r["coefficients"])}) for r in data["fit_rows"]
        ],
        level_rows=[LevelRow(**r) for r in data["level_rows"]],
        stat_rows=[StatRow(**r) for r in data["stat_rows"]],
        skip_rows=[SkipRow(**r) for r in data["skip_rows"]],
        notes=list(data["notes"]),
    )


def load_bundle(path: str) -> ResultBundle:
    """Read a saved bundle.json; one that cannot be read is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return bundle_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON
        raise InputError(f"cannot read bundle {path}: {exc!r}") from exc
