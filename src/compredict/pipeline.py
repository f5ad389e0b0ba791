"""End-to-end orchestration: trials -> sweeps -> metrics -> statistics.

`sweep_trials` lays all trials out once (`prediction.SweepLayout`) and each
profile sweeps the whole session in one `sweep_session` call, which keeps
only the per-start mean error, max error and score of every horizon; both
`run_pipeline` and the CLI's `predict` read those vectors. Profiles may
run on a thread pool, but every reduction and every output row is produced
in a fixed sorted order, so a run's outputs are byte-identical regardless
of thread count. Trials too short for a horizon are skipped with a reason
instead of aborting the run.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

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
from .io import InputError, RunConfig, load_trial, write_table
from .metrics import MetricSummary, summarize
from .prediction import SweepLayout, Trial, TrialTooShortError, sweep_session
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


def load_all_trials(entries, config: RunConfig):
    """Load every manifest entry; returns (trials, notes)."""
    trials: list[Trial] = []
    notes: list[str] = []
    for entry in entries:
        built, entry_notes = load_trial(entry, config)
        trials.extend(built)
        notes.extend(entry_notes)
    return trials, notes


def sweep_trials(config: RunConfig, trials):
    """Sweep every trial with every configured profile and horizon.

    Returns (swept, shares). swept[profile][t_ms] holds the per-start
    (means, maxima, scores) vectors of `sweep_session`, trial after trial;
    shares[t_ms][i] is the slice of them that belongs to trials[i], empty
    when that trial is shorter than the horizon.
    """
    specs = dict(zip(config.horizons_ms, config.horizon_specs()))

    # one layout of the whole session, read by every profile's sweep, with no
    # room for horizons longer than every trial; a sweep keeps only each
    # start's mean error, max error and score per horizon
    longest = max((trial.n_samples for trial in trials), default=0)
    n_max = max((s.n_samples for s in specs.values() if s.n_samples <= longest), default=0)
    layout = SweepLayout(trials, float(config.dt), n_max, config.stride)

    def sweep(profile):
        return dict(zip(specs, sweep_session(layout, specs.values(), profile)))

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            swept = dict(zip(config.profiles, pool.map(sweep, config.profiles)))
    else:
        # a lone pool worker would allocate the sweep's work arrays in its own
        # malloc arena instead of reusing what loading freed, raising peak RSS
        swept = dict(zip(config.profiles, map(sweep, config.profiles)))
    shares = {}
    for t_ms, spec in specs.items():
        counts = layout.starts(spec.n_samples)
        ends = np.cumsum(counts).tolist()
        shares[t_ms] = [slice(end - count, end) for end, count in zip(ends, counts.tolist())]
    return swept, shares


def run_pipeline(config: RunConfig, trials) -> ResultBundle:
    """Compute metric rows and the statistics layer for a set of trials."""
    if not trials:
        raise PipelineError("no trials to process")
    bundle = ResultBundle(version=__version__, config=config.to_dict())
    specs = config.horizon_specs()
    swept, shares = sweep_trials(config, trials)

    # fixed-order reduction to per-subject metric rows
    subjects = sorted({t.subject_id for t in trials})
    skip_seen = set()
    for subject in subjects:
        subject_idx = [i for i, t in enumerate(trials) if t.subject_id == subject]
        for profile in config.profiles:
            for t_ms, spec in zip(config.horizons_ms, specs):
                grouped_means: dict = {}
                grouped_maxima: dict = {}
                grouped_scores: dict = {}
                for idx in subject_idx:
                    trial = trials[idx]
                    share = shares[t_ms][idx]
                    if share.start == share.stop:
                        skip_key = (subject, trial.activity_id, trial.repeat_index, t_ms)
                        if skip_key not in skip_seen:
                            skip_seen.add(skip_key)
                            reason = TrialTooShortError.for_horizon(trial, spec)
                            bundle.skip_rows.append(SkipRow(*skip_key, reason=str(reason)))
                        continue
                    means, maxima, scores = (v[share] for v in swept[profile][t_ms])
                    grouped_means.setdefault(trial.activity_id, {})[trial.repeat_index] = means
                    grouped_maxima.setdefault(trial.activity_id, {})[trial.repeat_index] = maxima
                    if not trial.is_static:
                        grouped_scores.setdefault(trial.activity_id, {})[trial.repeat_index] = scores
                if not grouped_means:
                    continue  # every trial of this subject was too short for t_ms
                bundle.metric_rows.append(
                    summarize(
                        subject,
                        profile,
                        t_ms,
                        grouped_means,
                        grouped_maxima,
                        grouped_scores,
                        aggregation=config.aggregation,
                    )
                )

    fit_rows, level_rows, stat_rows, stat_notes = compute_statistics(bundle.metric_rows, config)
    bundle.fit_rows.extend(fit_rows)
    bundle.level_rows.extend(level_rows)
    bundle.stat_rows.extend(stat_rows)
    bundle.notes.extend(stat_notes)
    return bundle


def _metric_values(metric_rows, metric: str, profile: str, t_ms: float) -> list[float]:
    values = []
    for row in sorted(metric_rows, key=lambda r: r.subject_id):
        if row.profile == profile and row.horizon_ms == t_ms:
            value = getattr(row, metric)
            if value is not None:
                values.append(value)
    return values


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

    for metric in METRIC_NAMES:
        for profile in config.profiles:
            levels = []
            for t_ms in config.horizons_ms:
                values = _metric_values(metric_rows, metric, profile, t_ms)
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
            groups = {p: _metric_values(metric_rows, metric, p, t_ms) for p in config.profiles}
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
                if not pairs:
                    continue
                m = config.bonferroni_m if config.bonferroni_m > 0 else len(pairs)
                raw, rows = [], []
                for a, b in pairs:
                    try:
                        test = welch_t_test(usable[a], usable[b])
                        effect = cohens_d(usable[a], usable[b], variant=config.cohens_d_variant)
                    except DegenerateVarianceError as exc:
                        rows.append(
                            StatRow(metric, t_ms, f"{a}-{b}", None, None, None, None, note=str(exc))
                        )
                        raw.append(None)
                        continue
                    raw.append(test.p_value)
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
                adjusted = bonferroni([p for p in raw if p is not None], max(m, len([p for p in raw if p is not None])))
                adj_iter = iter(adjusted)
                for row, p in zip(rows, raw):
                    stat_rows.append(
                        row if p is None else replace(row, adjusted_p=next(adj_iter))
                    )
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


# file name -> (header, bundle -> rows), in export order
TABLES = {
    "metrics.csv": (
        METRICS_HEADER,
        lambda b: [
            (r.subject_id, r.profile, r.horizon_ms, r.ae, r.me, r.ada, r.mda) for r in b.metric_rows
        ],
    ),
    "tests.csv": (
        ["metric", "horizon_ms", "comparison", "statistic", "df1", "df2", "p_value", "adjusted_p", "cohens_d", "note"],
        lambda b: [
            (r.metric, r.horizon_ms, r.comparison, r.statistic, r.df1, r.df2, r.p_value, r.adjusted_p, r.effect_size, r.note)
            for r in b.stat_rows
        ],
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
        lambda b: [
            (r.metric, r.profile, r.horizon_ms, r.mean, r.ci_low, r.ci_high, r.n) for r in b.level_rows
        ],
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
    write_table(path, header, rows(bundle))
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
