"""End-to-end orchestration: trials -> sweeps -> metrics -> statistics.

`loaded_entries` loads the manifest's entries in order, on forked worker
processes when the run has two or more workers, so `scipy.signal` is
imported only by them and the process that sweeps the session stays small.

`run_pipeline` sweeps the whole session at once with every profile and
horizon (`prediction.sweep_session`, reduced), which hands each trial over
as soon as it is swept, folded per horizon to its start count and each
profile's sum of mean errors, largest max error and sum of scores. One pass
over that record makes each trial's `metrics.Outcome` per profile and
horizon it fits and its skip row per horizon it does not, and each
(subject, profile, horizon)'s outcomes become a row (`summarize`).
`compute_statistics` groups the metric rows' values by (metric, profile,
horizon) once and runs the trend fits and the per-horizon tests on them.
One function, `_test_row`, turns every test (trend F-test, ANOVA or pairwise
t-test) into its `StatRow`, or into a note row when the test or its effect
size finds no variance; each Bonferroni family is corrected in one call.
Blocks may run on a thread pool, but trials come back in order and every
output row is produced in a fixed sorted order, so a run's outputs are
byte-identical regardless of thread count. Trials too short for a horizon
are skipped with a reason instead of aborting the run. `result_bundle`
builds every bundle with statistics: `run_pipeline` ends with it, and
`analyze` calls it on the rows of a `metrics.csv`.
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
from .metrics import MetricSummary, Outcome, summarize
from .prediction import Trial, TrialTooShortError, sweep_session, worker_count
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

    With two or more workers (`worker_count`, the rule the sweep's threads
    follow too) and the fork start method, entries load on a pool of forked
    processes: parsing and the GRF chain, and with it the `scipy.signal`
    import, stay out of the caller. Otherwise they load in the caller.
    Either way the first failing entry's error is raised, and no worker
    outlives the iterator.
    """
    workers = worker_count(config.threads, len(entries))
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
    specs = config.horizon_specs()

    # (subject, profile index, horizon index) -> one Outcome per trial, and
    # (subject, horizon index) -> one SkipRow per trial too short for it
    outcomes, skips = defaultdict(list), defaultdict(list)
    session = sweep_session(trials, specs, config.profiles, config.stride, config.threads, reduced=True)
    for i, record in session:
        trial = trials[i]
        labels = (trial.activity_id, trial.repeat_index, trial.is_static)
        for j, (n, *columns) in enumerate(record):
            if n:
                for p, values in enumerate(zip(*(column.tolist() for column in columns))):
                    outcomes[trial.subject_id, p, j].append(Outcome(*labels, n, *values))
            else:
                reason = str(TrialTooShortError.for_horizon(trial, specs[j]))
                skips[trial.subject_id, j].append(SkipRow(*trial.key(), config.horizons_ms[j], reason))

    # fixed-order per-subject metric rows, and skip rows in subject, then
    # configured horizon, then trial order; a subject none of whose trials
    # fits a horizon has no metric row for it
    metric_rows = [
        summarize(subject, config.profiles[p], config.horizons_ms[j], own, aggregation=config.aggregation)
        for (subject, p, j), own in sorted(outcomes.items())
    ]
    skip_rows = [row for _, rows in sorted(skips.items()) for row in rows]
    return result_bundle(config, metric_rows, skip_rows)


def result_bundle(config: RunConfig, metric_rows: list, skip_rows=()) -> ResultBundle:
    """The bundle of metric rows and skip rows, with `compute_statistics` run on the metric rows."""
    bundle = ResultBundle(__version__, config.to_dict(), metric_rows, skip_rows=list(skip_rows))
    bundle.fit_rows, bundle.level_rows, bundle.stat_rows, bundle.notes = compute_statistics(metric_rows, config)
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
            # the horizons with two or more values: a level row each, and the trend's data
            levels = [(t_ms, grouped[metric, profile, t_ms]) for t_ms in config.horizons_ms]
            levels = [(t_ms, values) for t_ms, values in levels if len(values) >= 2]
            for t_ms, values in levels:
                mean, ci = float(np.mean(values)), confidence_interval(values)
                level_rows.append(LevelRow(metric, profile, t_ms, mean, *ci, n=len(values)))
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
            trend_tests = {
                "cubic-vs-quadratic": cascade.cubic_vs_quadratic,
                "quadratic-vs-linear": cascade.quadratic_vs_linear,  # None once the cubic is selected
            }
            for name, test in trend_tests.items():
                if test is not None:
                    stat_rows.append(_test_row(metric, None, f"{profile}:{name}", lambda: test))

    # the Bonferroni families: each pair of non-oracle profiles, and the
    # oracle against each of them
    oracle = ProfileKind.ORACLE.value
    plain = [p for p in config.profiles if p != oracle]
    families = [
        [(a, b) for i, a in enumerate(plain) for b in plain[i + 1 :]],
        [(oracle, p) for p in plain] if oracle in config.profiles else [],
    ]
    for metric in METRIC_NAMES:
        for t_ms in config.horizons_ms:
            groups = {p: grouped[metric, p, t_ms] for p in config.profiles}
            usable = {p: v for p, v in groups.items() if len(v) >= 2}
            if len(usable) < 2:
                continue
            anova = _test_row(metric, t_ms, "anova", lambda: welch_anova(list(usable.values())))
            stat_rows.append(anova)
            # post-hoc tests only after a significant main effect; a note or a NaN p is none
            if anova.p_value is None or not anova.p_value <= config.alpha:
                continue
            for family in families:
                pairs = [(a, b) for a, b in family if a in usable and b in usable]
                rows = [
                    _test_row(
                        metric,
                        t_ms,
                        f"{a}-{b}",
                        lambda: welch_t_test(usable[a], usable[b]),
                        lambda: cohens_d(usable[a], usable[b], variant=config.cohens_d_variant),
                    )
                    for a, b in pairs
                ]
                tested = [row.p_value for row in rows if row.p_value is not None]
                # the family's size, raised to the number of pairs tested
                adjusted = iter(bonferroni(tested, max(config.bonferroni_m or len(pairs), len(tested))))
                stat_rows.extend(row if row.p_value is None else replace(row, adjusted_p=next(adjusted)) for row in rows)
    return fit_rows, level_rows, stat_rows, notes


def _test_row(metric: str, horizon_ms: float | None, comparison: str, test, effect=None) -> StatRow:
    """The row of one test. `test()` runs it and `effect()`, if given, gives
    its effect size; a DegenerateVarianceError from either makes the row a
    note with no figures."""
    try:
        result = test()
        effect_size = effect() if effect else None
    except DegenerateVarianceError as exc:
        return StatRow(metric, horizon_ms, comparison, None, None, None, None, note=str(exc))
    return StatRow(
        metric=metric,
        horizon_ms=horizon_ms,
        comparison=comparison,
        statistic=result.statistic,
        df1=result.df1,
        df2=result.df2,
        p_value=result.p_value,
        effect_size=effect_size,
        note="perfect fit" if result.perfect_fit else "",
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
        lambda b: map(astuple, b.skip_rows),
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
