"""Tests of the benchmark's own code: input generation, output checks, span arithmetic.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import filecmp
import json
import math
import os
import threading

import pytest

import checks
import spans
import workloads
from compredict.io import DEFAULTS, load_manifest, load_trial


def _same_tree(a, b):
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    for sub in cmp.common_dirs:
        _, mismatch, errors = filecmp.cmpfiles(
            os.path.join(a, sub), os.path.join(b, sub), os.listdir(os.path.join(a, sub)), shallow=False
        )
        if mismatch or errors:
            return False
    return True


@pytest.fixture(scope="module")
def lab_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("lab")
    built = {
        name: workloads.build("lab_preprocess", seed, str(root / name))
        for name, seed in (("a", 3), ("b", 3), ("c", 4))
    }
    return root, built


def test_generator_is_deterministic_per_seed(lab_inputs):
    root, built = lab_inputs
    assert _same_tree(root / "a", root / "b")
    assert not _same_tree(root / "a", root / "c")


def test_work_size_does_not_depend_on_seed(lab_inputs):
    _, built = lab_inputs
    fields = ("trials", "samples", "grf_samples", "subjects", "accel_rows")
    assert [getattr(built["a"], f) for f in fields] == [getattr(built["c"], f) for f in fields]
    desk = [workloads._desk_items(seed) for seed in (1, 2)]
    assert [t[4].n_samples for t in desk[0]] != [t[4].n_samples for t in desk[1]]
    assert sum(t[4].n_samples for t in desk[0]) == sum(t[4].n_samples for t in desk[1])
    long_a, long_b = workloads._long_items(1, seconds=5.0), workloads._long_items(2, seconds=5.0)
    assert [t[4].n_samples for t in long_a] == [t[4].n_samples for t in long_b] == [1001, 1001]


def test_lab_inputs_take_every_lab_path(lab_inputs):
    _, built = lab_inputs
    manifest = built["a"].manifest
    with open(manifest, encoding="utf-8") as fh:
        raw = json.load(fh)["trials"]
    assert all("contact_intervals" not in e and e["axis_map"] == list(workloads.LAB_AXIS_MAP) for e in raw)
    entries = load_manifest(manifest)
    split = next(e for e in entries if e.phase_split is not None)
    trials, notes = load_trial(split, DEFAULTS)
    assert [t.activity_id for t in trials] == [f"{split.activity_id}_start", f"{split.activity_id}_return"]
    assert any("velocities estimated" in n for n in notes)
    assert any("contact intervals auto-detected (2 found)" in n for n in notes)
    # mapped back through the manifest's axis_map, the lab files give the generated trial
    whole = next(e for e in entries if e.phase_split is None)
    (trial,), _ = load_trial(whole, DEFAULTS)
    index = [(e.subject_id, e.activity_id, e.repeat_index) for e in entries].index(trial.key())
    assert (trial.positions == workloads._desk_items(3)[index][4].positions).all()


def _write_metrics(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(checks.METRICS_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


PROFILES = ("zero", "const", "cubic", "oracle")
HORIZONS = (125.0, 250.0)


def _good_rows():
    rows = []
    for s in ("s00", "s01"):
        for scale, profile in zip((1.0, 0.5, 0.7, 0.01), PROFILES):
            for h in HORIZONS:
                rows.append([s, profile, h, scale * h * 1e-4, scale * h * 1e-3, 0.9, 0.8])
    return rows


def _corrupt(kind):
    rows = _good_rows()
    if kind == "ae_above_me":
        rows[3][3] = rows[3][4] * 2
    elif kind == "mda_above_ada":
        rows[5][6] = 0.95
    elif kind == "non_finite":
        rows[2][4] = "nan"
    elif kind == "empty_cell":
        rows[2][5] = ""
    elif kind == "missing_row":
        del rows[-1]
    elif kind == "duplicate_row":
        rows[1] = list(rows[0])
    elif kind == "oracle_not_better":
        oracle = next(r for r in rows if r[1] == "oracle")
        oracle[3] = 1.0
        oracle[4] = 2.0
    return rows


def test_checker_accepts_valid_metrics(tmp_path):
    path = tmp_path / "metrics.csv"
    _write_metrics(path, _good_rows())
    assert checks.check_metrics_csv(str(path), 2, PROFILES, HORIZONS) == []


@pytest.mark.parametrize(
    "kind",
    ["ae_above_me", "mda_above_ada", "non_finite", "empty_cell", "missing_row", "duplicate_row", "oracle_not_better"],
)
def test_checker_rejects_corrupted_metrics(tmp_path, kind):
    path = tmp_path / "metrics.csv"
    _write_metrics(path, _corrupt(kind))
    assert checks.check_metrics_csv(str(path), 2, PROFILES, HORIZONS)


def test_checker_rejects_short_preprocess_output(tmp_path):
    for i in range(3):
        (tmp_path / f"s00_act{i}_0_accel.csv").write_text(f"{checks.ACCEL_HEADER}\n0.0,1,2,3\n0.005,1,2,3\n")
    assert checks.check_accel_dir(str(tmp_path), 3, 6) == []
    assert checks.check_accel_dir(str(tmp_path), 4, 6)
    assert checks.check_accel_dir(str(tmp_path), 3, 7)
    (tmp_path / "s00_act0_0_accel.csv").write_text(f"{checks.ACCEL_HEADER}\n0.0,1,inf,3\n0.005,1,2,3\n")
    assert checks.check_accel_dir(str(tmp_path), 3, 6)


def _span(span_id, name, parent, start, end, **extra):
    return {"id": span_id, "name": name, "parent": parent, "thread": 0, "start": start, "end": end, "ok": True, **extra}


def test_self_time_is_span_minus_children_cover():
    tree = [
        _span(1, "pipeline.load_all_trials", None, 1.0, 9.0),
        _span(2, "io.load_trial", 1, 2.0, 6.0),
        _span(3, "io.read_com_csv", 2, 2.5, 3.0),
        _span(4, "signal.preprocess", 2, 3.5, 5.0),
        _span(5, "io.load_trial", 1, 6.0, 8.0),
    ]
    per_span, per_layer = spans.attribute(tree, 0.0, 10.0)
    for s in tree:
        kids = [(k["start"], k["end"]) for k in tree if k["parent"] == s["id"]]
        assert per_span.get(s["id"], 0.0) == pytest.approx(s["end"] - s["start"] - spans.union_length(kids))
    assert per_layer["process"] == pytest.approx(2.0)
    assert per_layer["io"] == pytest.approx(2.0 + 0.5 + 2.0)
    assert per_layer["signal"] == pytest.approx(1.5)
    assert per_layer["pipeline"] == pytest.approx(2.0)
    assert math.fsum(per_layer.values()) == pytest.approx(10.0)


def test_parallel_children_share_their_merged_interval():
    tree = [
        _span(1, "pipeline.run_pipeline", None, 0.0, 10.0),
        _span(2, "prediction.sweep_errors", 1, 1.0, 4.0, profile="zero", n=3, starts=5),
        _span(3, "prediction.sweep_errors", 1, 3.0, 6.0, profile="const", n=3, starts=5),
        _span(4, "metrics.summarize", 1, 7.0, 8.0),
    ]
    per_span, per_layer = spans.attribute(tree, 0.0, 10.0)
    assert per_span[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert per_layer["prediction"] == pytest.approx(5.0)
    out = spans.layer_metrics(tree, 0.0, 10.0)
    assert out["prediction.sweep_busy_s"] == pytest.approx(6.0)
    assert out["prediction.sweep_wall_s"] == pytest.approx(5.0)
    assert out["prediction.parallelism"] == pytest.approx(1.2)
    assert out["prediction.sample_errors"] == 30
    assert out["pipeline.self_s"] == pytest.approx(4.0)
    assert math.fsum(out[f"self_s.{layer}"] for layer in spans.LAYERS) == pytest.approx(out["trace.wall_s"])


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (2, 3)]) == 2
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4


def test_recorder_links_pool_workers_to_the_main_thread_span():
    recorder = spans.Recorder()
    inner = recorder.wrap("prediction.sweep_errors", lambda: threading.get_ident())

    def outer_fn():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return inner()

    outer = recorder.wrap("pipeline.run_pipeline", outer_fn)
    outer()
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s["name"], []).append(s)
    (parent,) = by_name["pipeline.run_pipeline"]
    assert parent["parent"] is None
    children = by_name["prediction.sweep_errors"]
    assert len(children) == 2 and {c["parent"] for c in children} == {parent["id"]}
    assert len({c["thread"] for c in children}) == 2


def test_child_peak_rss_is_its_own(tmp_path):
    """A child spawned straight from this process would report at least this
    process's peak RSS; through launch.py it reports its own."""
    import numpy as np

    import run

    ballast = np.ones(200 * 2**20 // 8)  # lift this process's peak by 200 MiB
    child = run.ChildRun(["-c", "pass"], str(tmp_path / "child.log"), dict(os.environ))
    assert child.exit == 0 and child.wall_s > 0
    assert child.peak_rss_mb < 100 < ballast.nbytes / 2**20


def test_benchmark_json_matches_the_report():
    """Names and units in BENCHMARK.json are the ones run.py reports."""
    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in run.PER_LAYER.items()
    ]
