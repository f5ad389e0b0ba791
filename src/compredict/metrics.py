"""Hierarchical per-subject metrics over per-trial outcomes.

Four metrics summarize a subject's trials for one profile and horizon
length:

  ae   average error: the mean over activities of the mean over repeats of
       each trial's mean over horizons, so that every level weighs equally
  me   max error: the worst error anywhere
  ada  average direction accuracy: the 0/1 direction scores' mean, nested
       as for ae, over the non-static trials
  mda  min direction accuracy: the lowest non-static trial's mean score

Each trial that fits the horizon length gives one `Outcome`, read off the
record the reduced sweep folds it to: no per-start vector reaches here. A
trial's mean, sum / n, is the `np.mean` of its values bit for bit (numpy's
mean is the same pairwise sum over the count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

import numpy as np


class Outcome(NamedTuple):
    """One trial's sweep at one profile and horizon length: n >= 1 horizons, the sum
    of their mean errors, the largest of their max errors and the sum of their scores."""

    activity_id: str
    repeat_index: int
    is_static: bool
    n: int
    error_sum: float
    error_max: float
    score_sum: float


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
    outcomes: list[Outcome],
    aggregation: str = "hierarchical",
) -> MetricSummary:
    """Reduce one subject's outcomes, in any order, to a MetricSummary.

    A subject whose trials are all static gets ada = mda = None. "pooled"
    aggregation takes grand means over every horizon instead, ignoring the
    hierarchy: a sensitivity check, equal to the mean over every sample up
    to rounding, since all horizons of one length have the same samples.
    """
    if aggregation not in ("hierarchical", "pooled"):
        raise ValueError(f"unknown aggregation mode {aggregation!r}")
    if not outcomes:
        raise ValueError(f"no trials to summarize for {subject_id} {profile} {horizon_ms:g} ms")
    outcomes = sorted(outcomes, key=lambda o: (o.activity_id, o.repeat_index))

    def mean(rows, field):
        if aggregation == "pooled":
            return math.fsum(getattr(o, field) for o in rows) / sum(o.n for o in rows)
        activities = groupby(rows, key=lambda o: o.activity_id)
        return float(np.mean([np.mean([getattr(o, field) / o.n for o in repeats]) for _, repeats in activities]))

    scored = [o for o in outcomes if not o.is_static]
    return MetricSummary(
        subject_id=subject_id,
        profile=str(profile),
        horizon_ms=horizon_ms,
        ae=mean(outcomes, "error_sum"),
        me=max(float(o.error_max) for o in outcomes),
        ada=mean(scored, "score_sum") if scored else None,
        mda=min(o.score_sum / o.n for o in scored) if scored else None,
    )
