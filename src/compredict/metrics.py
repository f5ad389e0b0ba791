"""Hierarchical per-subject metrics over per-trial values.

Four metrics summarize a subject's trials for one profile and horizon
length:

  average_error       mean error, averaged sample -> horizon -> repeat ->
                      activity (an unweighted mean of means at every level,
                      so activities of different durations weigh equally)
  max_error           worst-case error over everything
  average_direction_accuracy
                      mean of the 0/1 direction scores with the same
                      hierarchy (static activities excluded upstream)
  min_direction_accuracy
                      per-(activity, repeat) mean over horizons, then the
                      minimum over repeats and activities

Inputs are grouped as {activity_id: {repeat_index: value}}, one value per
trial: a `Tally` of its per-horizon mean errors or 0/1 scores, or its
largest per-horizon max error. The pipeline reduces each trial's per-start
vectors to these as soon as the sweep hands them over, so no per-start
vector reaches this module. A tally's mean is the `np.mean` of its values
bit for bit (numpy's mean is the same pairwise sum over the count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np


class Tally(NamedTuple):
    """One trial's per-horizon values as their `np.sum` and count."""

    total: float
    n: int

    @property
    def mean(self) -> float:
        return self.total / self.n


Grouped = Mapping[str, Mapping[int, Tally]]


class AggregationError(ValueError):
    """A grouping level required by a metric is empty."""


def _trials(grouped: Mapping, what: str) -> list[list]:
    """Per activity, the per-repeat values, both in sorted key order; an
    empty level raises AggregationError naming it."""
    if not grouped:
        raise AggregationError(f"no activities to aggregate for {what}")
    for activity, repeats in grouped.items():
        if not repeats:
            raise AggregationError(f"activity {activity!r} has no repeats ({what})")
        empty = [r for r, v in repeats.items() if isinstance(v, Tally) and v.n == 0]
        if empty:
            raise AggregationError(f"activity {activity!r} repeat {empty[0]} has no horizons ({what})")
    return [[v for _, v in sorted(repeats.items())] for _, repeats in sorted(grouped.items())]


def _mean_of_means(grouped: Grouped, what: str) -> float:
    """Mean over activities of the mean over repeats of each trial's mean
    over horizons, so every level weighs equally."""
    activity_means = [
        float(np.mean([tally.mean for tally in repeats])) for repeats in _trials(grouped, what)
    ]
    return float(np.mean(activity_means))


def _pooled_mean(grouped: Grouped, what: str) -> float:
    """Grand mean over every horizon, ignoring the hierarchy."""
    tallies = [tally for repeats in _trials(grouped, what) for tally in repeats]
    return math.fsum(t.total for t in tallies) / sum(t.n for t in tallies)


def average_error(grouped_means: Grouped) -> float:
    """Mean-of-means of per-horizon mean errors up the hierarchy (meters)."""
    return _mean_of_means(grouped_means, "average error")


def max_error(grouped_maxima: Mapping[str, Mapping[int, float]]) -> float:
    """Largest per-trial max error anywhere in the hierarchy (meters)."""
    return max(float(v) for repeats in _trials(grouped_maxima, "max error") for v in repeats)


def average_direction_accuracy(grouped_scores: Grouped) -> float:
    """Mean-of-means of direction scores; callers must exclude static
    activities before grouping."""
    return _mean_of_means(grouped_scores, "average direction accuracy")


def min_direction_accuracy(grouped_scores: Grouped) -> float:
    """Worst per-(activity, repeat) mean direction score."""
    return min(t.mean for repeats in _trials(grouped_scores, "min direction accuracy") for t in repeats)


def pooled_average_error(grouped_means: Grouped) -> float:
    """Grand mean of per-horizon mean errors, ignoring the hierarchy. Every
    horizon of one length has the same number of samples, so this is the
    mean over every sample up to rounding. Offered as a sensitivity check
    next to the default mean-of-means."""
    return _pooled_mean(grouped_means, "pooled average error")


def pooled_average_direction_accuracy(grouped_scores: Grouped) -> float:
    """Grand mean over every score, ignoring the hierarchy."""
    return _pooled_mean(grouped_scores, "pooled average direction accuracy")


@dataclass(frozen=True)
class MetricSummary:
    """Per-subject metric values for one (profile, horizon length)."""

    subject_id: str
    profile: str
    horizon_ms: float
    ae: float
    me: float
    ada: float | None
    mda: float | None


def summarize(
    subject_id: str,
    profile: str,
    horizon_ms: float,
    grouped_means: Grouped,
    grouped_maxima: Mapping[str, Mapping[int, float]],
    grouped_scores: Grouped,
    aggregation: str = "hierarchical",
) -> MetricSummary:
    """Reduce one subject's per-trial tallies of mean errors, per-trial max
    errors and per-trial tallies of direction scores to a MetricSummary.

    grouped_scores must already exclude static activities; passing an empty
    mapping yields ada = mda = None (subject had only static activities for
    this horizon).
    """
    if aggregation == "hierarchical":
        ae = average_error(grouped_means)
        ada = average_direction_accuracy(grouped_scores) if grouped_scores else None
    elif aggregation == "pooled":
        ae = pooled_average_error(grouped_means)
        ada = pooled_average_direction_accuracy(grouped_scores) if grouped_scores else None
    else:
        raise ValueError(f"unknown aggregation mode {aggregation!r}")
    return MetricSummary(
        subject_id=subject_id,
        profile=str(profile),
        horizon_ms=horizon_ms,
        ae=ae,
        me=max_error(grouped_maxima),
        ada=ada,
        mda=min_direction_accuracy(grouped_scores) if grouped_scores else None,
    )
