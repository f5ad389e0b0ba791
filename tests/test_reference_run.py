"""The pipeline's metric and skip rows against an independent reference:
per-start stepping and plain loops (`oracles.reference_metric_rows`)."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compredict import prediction
from compredict.io import DEFAULTS
from compredict.pipeline import run_pipeline
from compredict.prediction import Trial

from oracles import reference_metric_rows

DT = 0.005
HORIZONS_MS = (10.0, 25.0, 40.0)  # 3, 6 and 9 samples


@st.composite
def sessions(draw):
    """Random trials of 2-3 subjects, 1-3 activities (some static) and 1-2
    repeats, 2 to 80 samples long: from below the shortest horizon to past
    a 64-start block."""
    n_subjects = draw(st.integers(2, 3))
    static = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    n_repeats = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trials = []
    for s in range(n_subjects):
        for a, is_static in enumerate(static):
            for r in range(n_repeats):
                n = draw(st.integers(2, 80))
                trials.append(
                    Trial(
                        subject_id=f"s{s}",
                        activity_id=f"a{a}",
                        repeat_index=r,
                        is_static=is_static,
                        mass=70.0,
                        dt=DT,
                        positions=rng.normal(size=(n, 3)) * rng.uniform(0.05, 2.0),
                        velocities=rng.normal(size=(n, 3)),
                        accel_inputs=rng.normal(size=(n, 3)) * 3.0,
                    )
                )
    return trials


@settings(max_examples=100, deadline=None)
@given(
    trials=sessions(),
    stride=st.integers(1, 3),
    profiles=st.permutations(["zero", "const", "cubic", "oracle"]),
    aggregation=st.sampled_from(["hierarchical", "pooled"]),
    threads=st.integers(1, 2),
)
def test_metric_rows_equal_reference(trials, stride, profiles, aggregation, threads):
    config = replace(
        DEFAULTS,
        horizons_ms=HORIZONS_MS,
        profiles=tuple(profiles),
        stride=stride,
        aggregation=aggregation,
        threads=threads,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prediction, "BLOCK_STARTS", 64)
        bundle = run_pipeline(config, trials)
    rows, skips = reference_metric_rows(trials, config)

    assert [(r.subject_id, r.activity_id, r.repeat_index, r.horizon_ms, r.reason) for r in bundle.skip_rows] == skips
    assert [(r.subject_id, r.profile, r.horizon_ms) for r in bundle.metric_rows] == [row[:3] for row in rows]
    for row, expected in zip(bundle.metric_rows, rows):
        for value, want in zip((row.ae, row.me, row.ada, row.mda), expected[3:]):
            if want is None:
                assert value is None
            else:
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=50, deadline=None)
@given(trials=sessions(), data=st.data(), aggregation=st.sampled_from(["hierarchical", "pooled"]))
def test_trial_order_does_not_change_metric_rows(trials, data, aggregation):
    config = replace(DEFAULTS, horizons_ms=HORIZONS_MS, aggregation=aggregation)
    shuffled = data.draw(st.permutations(trials))
    bundle, expected = run_pipeline(config, shuffled), run_pipeline(config, trials)
    # repr shows every float to the last bit; skip rows follow trial order
    assert list(map(repr, bundle.metric_rows)) == list(map(repr, expected.metric_rows))
    assert Counter(bundle.skip_rows) == Counter(expected.skip_rows)
