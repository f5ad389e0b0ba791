import concurrent.futures
import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from compredict import io, pipeline
from compredict.cli import FLAGS, HORIZONS_HEADER, main
from compredict.io import (
    COM_HEADER,
    COM_HEADER_NO_VEL,
    DEFAULTS,
    GRF_HEADER,
    ConfigError,
    LengthMismatchError,
    ManifestError,
    RunConfig,
    SchemaError,
    TimestampError,
    format_row,
    load_manifest,
    load_trial,
    parse_config,
    read_com_csv,
    read_grf_csv,
    timed_lines,
    write_dataset,
    write_table,
)
from compredict.pipeline import (
    METRICS_HEADER,
    PipelineError,
    export_results,
    load_all_trials,
    loaded_entries,
    run_pipeline,
)
from compredict.prediction import sweep_errors
from compredict.profiles import HorizonSpec, ProfileKind
from compredict.synth import SyntheticSpec, make_trial, protocol_items


# ---------------------------------------------------------------------------
# configuration


def test_default_config_values():
    assert DEFAULTS.dt == 0.005
    assert DEFAULTS.horizons_ms == (125.0, 250.0, 375.0, 500.0, 625.0)
    assert DEFAULTS.profiles == ("zero", "const", "cubic", "oracle")
    assert DEFAULTS.filter_order == 5 and DEFAULTS.filter_cutoff_hz == 20.0


def test_parse_config_overrides_and_comments():
    config = parse_config(
        """
        # prediction setup
        dt = 0.005
        horizons_ms = 125, 250
        profiles = zero, oracle
        filter_order = 3      # gentler filter
        filter_zero_phase = false
        alpha = 0.01
        threads = 4
        """
    )
    assert config.horizons_ms == (125.0, 250.0)
    assert config.profiles == ("zero", "oracle")
    assert config.filter_order == 3
    assert config.filter_zero_phase is False
    assert config.alpha == 0.01
    assert config.threads == 4


def test_parse_config_rejects_unknown_or_invalid():
    with pytest.raises(ConfigError):
        parse_config("colour = blue")
    with pytest.raises(ConfigError):
        parse_config("alpha 0.01")
    with pytest.raises(ConfigError):
        parse_config("filter_zero_phase = maybe")
    with pytest.raises(ConfigError):
        parse_config("horizons_ms = 123")  # not a whole number of samples
    with pytest.raises(ConfigError):
        parse_config("profiles = ballistic")
    with pytest.raises(ConfigError):
        RunConfig(contact_hold_samples=0)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("contact_hold_samples = abc\n", 1),
        ("# sweep setup\nhorizons_ms = 1x5\n", 2),
        ("dt = 0.005\n\nalpha = high\n", 3),
        ("threads = 2.5\n", 1),
        ("alpha = 0.01\nfilter_zero_phase = maybe\n", 2),
    ],
)
def test_cli_config_value_that_fails_to_parse_exits_1_naming_the_line(tmp_path, capsys, text, lineno):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    code = main(
        ["run", "--manifest", str(tmp_path / "unused.json"), "--out", str(tmp_path / "x"), "--config", str(config)]
    )
    assert code == 1
    assert f"line {lineno}:" in capsys.readouterr().err


def test_cli_config_errors_name_the_file_and_the_line(tmp_path, capsys):
    # a key that fails to parse, and a value out of range, each name the file
    # and the line that set it; a check across keys names the file only
    cases = {
        "alpha = 0.01\nbogus = 1\n": "line 2: unknown configuration key 'bogus'",
        "# filter\nfilter_order = 0\n": "line 2: filter_order must be >= 1, got 0",
        "profiles = zero, ballistic\n": "line 1: unknown profile 'ballistic'",
        "dt = 0.004\n": "horizon 125.0 ms is not a whole number of 4 ms samples",
    }
    config = tmp_path / "bad.cfg"
    for text, message in cases.items():
        config.write_text(text)
        argv = ["run", "--manifest", str(tmp_path / "unused.json"), "--out", str(tmp_path / "x")]
        assert main(argv + ["--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: {message}")
    # keys are checked together: a dt is not rejected before the horizons that fit it
    config.write_text("dt = 0.004\nhorizons_ms = 128\n")
    assert parse_config(config.read_text()).horizon_specs()[0].n_samples == 33


def test_cli_config_file_and_flags_are_checked_together(tmp_path, capsys):
    # the file's dt fits the flag's horizons, though not the default ones
    synth = ["synth", "--out", str(tmp_path / "data"), "--subjects", "2", "--activities", "2", "--repeats", "1"]
    assert main(synth + ["--dt", "0.004"]) == 0
    config = tmp_path / "dt4.cfg"
    config.write_text("dt = 0.004\n")
    argv = ["run", "--manifest", str(tmp_path / "data" / "manifest.json"), "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path / "out"), "--horizons", "128"]) == 0
    assert json.loads((tmp_path / "out" / "bundle.json").read_text())["config"]["horizons_ms"] == [128.0]
    # a flag whose value does not fit the file's is named
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "bad"), "--horizons", "125"]) == 1
    assert capsys.readouterr().err == "error: --horizons: horizon 125.0 ms is not a whole number of 4 ms samples\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--manifest", "m.json", "--out", "o"],
        ["preprocess", "--manifest", "m.json", "--out", "o"],
        ["analyze", "--metrics-csv", "metrics.csv", "--out", "o"],
    ],
)
def test_cli_empty_config_path_is_a_file_that_cannot_be_read(tmp_path, monkeypatch, capsys, argv):
    # `--config ""` names a file, not the defaults; it fails before the inputs are read
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", ""]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config : ")


# ---------------------------------------------------------------------------
# CSV round trips


def test_write_table_cell_format(tmp_path):
    path = tmp_path / "table.csv"
    write_table(
        path,
        ["a", "b", "c", "d", "e", "f"],
        map(
            format_row,
            [
                (None, True, False, np.float64(0.1), 3, "x"),
                (0.1 + 0.2, None, None, 1e-300, np.int64(7), ""),
            ],
        ),
    )
    assert path.read_text() == "a,b,c,d,e,f\n,true,false,0.1,3,x\n0.30000000000000004,,,1e-300,7,\n"


def test_com_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    positions = rng.normal(size=(40, 3))
    velocities = rng.normal(size=(40, 3))
    path = tmp_path / "com.csv"
    write_table(path, COM_HEADER, timed_lines(0.005, positions, velocities))
    dt, pos, vel = read_com_csv(path)
    assert dt == pytest.approx(0.005, rel=1e-12)
    assert_array_equal(pos, positions)
    assert_array_equal(vel, velocities)


def test_grf_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    forces = rng.normal(size=(200, 3)) * 400.0
    path = tmp_path / "grf.csv"
    write_table(path, GRF_HEADER, timed_lines(1.0 / 1000.0, forces))
    rate, out = read_grf_csv(path)
    assert rate == pytest.approx(1000.0, rel=1e-9)
    assert_array_equal(out, forces)


def test_read_csv_schema_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,px,py\n0.0,1,2\n")
    with pytest.raises(SchemaError):
        read_com_csv(bad)
    bad.write_text("time_s,px,py,pz\n0.0,1,2,nope\n0.005,1,2,3\n")
    with pytest.raises(SchemaError):
        read_com_csv(bad)
    bad.write_text("time_s,fx,fy,fz\n0.0,1,2,3\n")
    with pytest.raises(SchemaError):  # a single sample is not a series
        read_grf_csv(bad)


def test_csv_errors_name_the_physical_line_after_a_multi_line_cell(tmp_path, capsys):
    # the quoted cell of line 3 runs on to line 4, so the bad row is line 5
    grf = tmp_path / "grf.csv"
    grf.write_text('time_s,fx,fy,fz\n0.0,1,2,3\n0.001,"2\n",2,3\n0.002,1,2,nope\n')
    with pytest.raises(SchemaError, match=f"^{re.escape(str(grf))}:5: "):
        read_grf_csv(grf)
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(
        ",".join(METRICS_HEADER) + '\ns00,zero,125.0,0.1,0.2,0.5,0.4\n"s\n01",zero,125.0,0.1,0.2,0.5,0.4\n'
        "s02,zero,125.0,0.1,0.2\n"
    )
    assert main(["analyze", "--metrics-csv", str(metrics), "--out", str(tmp_path / "stats")]) == 1
    assert capsys.readouterr().err == f"error: {metrics}:5: expected 7 fields, got 5\n"


@pytest.mark.parametrize("n", [2, 3, 4, 5, 1000, 1001])  # odd and even counts of differences
def test_timestamp_period_is_the_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for times in (np.arange(n) / 999.9999999999991, np.cumsum(1e-3 * (1.0 + 1e-7 * rng.standard_normal(n)))):
        expected = float(np.median(np.diff(times)))
        assert io._check_timestamps("unused.csv", GRF_HEADER, times).hex() == expected.hex()


def test_timestamp_check_peaks_at_one_series_of_differences():
    # the differences are the only series-length buffer (~3 series when
    # np.median copied them and |diffs - dt| made two more)
    data = np.empty((600_005, 4))
    data[:, 0] = np.arange(len(data)) / 1000.0
    times = data[:, 0]
    tracemalloc.start()
    try:
        io._check_timestamps("unused.csv", GRF_HEADER, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * len(times) * times.itemsize


def test_read_csv_timestamp_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,fx,fy,fz\n0.0,1,2,3\n0.002,1,2,3\n0.001,1,2,3\n")
    with pytest.raises(TimestampError, match=f"^{re.escape(str(bad))}:4: timestamps not strictly increasing$"):
        read_grf_csv(bad)
    # a blank line before the backwards step: the error names the line, not the sample
    bad.write_text("time_s,fx,fy,fz\n0.0,1,2,3\n\n0.001,1,2,3\n0.0005,1,2,3\n")
    with pytest.raises(TimestampError, match=f"^{re.escape(str(bad))}:5: "):
        read_grf_csv(bad)
    bad.write_text("time_s,fx,fy,fz\n0.0,1,2,3\n0.001,1,2,3\n0.005,1,2,3\n")
    with pytest.raises(TimestampError):
        read_grf_csv(bad)


# ---------------------------------------------------------------------------
# dataset export + manifest + trial loading

NO_FILTER = replace(DEFAULTS, filter_enabled=False)


def _write_single_trial_dataset(tmp_path, trial_kwargs=None, **spec_kwargs):
    spec_args = dict(kind="sinusoid", duration=0.8, dt=0.005, amplitude=1.0, mass=70.0)
    spec_args.update(spec_kwargs)
    trial = make_trial(SyntheticSpec(**spec_args), **(trial_kwargs or {}))
    manifest_path = write_dataset(
        tmp_path / "data", [(trial.subject_id, trial.activity_id, 0, False, trial)]
    )
    return trial, manifest_path


def test_dataset_round_trip_recovers_trial(tmp_path):
    trial, manifest_path = _write_single_trial_dataset(tmp_path)
    entries = load_manifest(manifest_path)
    assert len(entries) == 1
    loaded, notes = load_trial(entries[0], NO_FILTER)
    assert notes == []
    (loaded,) = loaded
    assert loaded.n_samples == trial.n_samples
    # positions and velocities survive the text round trip bit for bit
    assert_array_equal(loaded.positions, trial.positions)
    assert_array_equal(loaded.velocities, trial.velocities)
    # accelerations go through force conversion, so only near-exact
    assert_allclose(loaded.accel_inputs, trial.accel_inputs, rtol=1e-12, atol=1e-12)


def test_dataset_round_trip_with_filter_is_close_for_smooth_input(tmp_path):
    trial, manifest_path = _write_single_trial_dataset(tmp_path)
    (loaded,), _ = load_trial(load_manifest(manifest_path)[0], DEFAULTS)
    # away from the edge transients the 20 Hz lowpass passes a 1 Hz
    # acceleration essentially unchanged
    assert_allclose(loaded.accel_inputs[20:-20], trial.accel_inputs[20:-20], atol=5e-3)


def test_load_trial_peaks_below_four_copies_of_its_forces(tmp_path):
    # a 1-min recording at 1000 Hz: the parsed force array, the filter's padded
    # buffer with the clamp written into it and one pass's output, and the
    # kept fifth (4.41 copies when the clamp and the result were copies too)
    _, manifest_path = _write_single_trial_dataset(tmp_path, duration=60.0)
    (entry,) = load_manifest(manifest_path)
    _, forces = read_grf_csv(entry.grf_file)
    assert len(forces) >= 60_000
    load_trial(entry, DEFAULTS)  # designs the filter and loads the kernel first
    tracemalloc.start()
    try:
        load_trial(entry, DEFAULTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * forces.nbytes


def test_load_trial_in_the_caller_filters_without_scipy_signal(tmp_path):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    script = (
        "import sys\n"
        "from compredict.io import DEFAULTS, load_manifest, load_trial\n"
        f"load_trial(load_manifest({str(manifest_path)!r})[0], DEFAULTS)\n"
        "print('scipy.signal' in sys.modules, 'scipy.signal._sosfilt' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_manifest_requires_mass(tmp_path):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    del raw["trials"][0]["mass_kg"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match="mass required"):
        load_manifest(path)


def test_manifest_checks_files_and_axis_map(tmp_path):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    raw["trials"][0]["com_file"] = "missing.csv"
    path = tmp_path / "data" / "broken.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match="not found"):
        load_manifest(path)

    raw = json.loads(Path(manifest_path).read_text())
    raw["trials"][0]["axis_map"] = ["x", "x", "z"]
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match="twice"):
        load_manifest(path)


def test_axis_map_signed_permutation(tmp_path):
    trial, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    raw["trials"][0]["axis_map"] = ["y", "-x", "z"]
    path = tmp_path / "data" / "mapped.json"
    path.write_text(json.dumps(raw))
    (loaded,), _ = load_trial(load_manifest(path)[0], NO_FILTER)
    assert_array_equal(loaded.positions[:, 0], trial.positions[:, 1])
    assert_array_equal(loaded.positions[:, 1], -trial.positions[:, 0])
    assert_array_equal(loaded.positions[:, 2], trial.positions[:, 2])


def test_load_trial_tolerates_one_sample_mismatch(tmp_path):
    trial, manifest_path = _write_single_trial_dataset(tmp_path)
    entry = load_manifest(manifest_path)[0]
    # drop the last 5 force samples: one fewer sample after downsampling
    rate, forces = read_grf_csv(entry.grf_file)
    write_table(entry.grf_file, GRF_HEADER, timed_lines(1.0 / rate, forces[:-5]))
    entry = replace(entry, contact_intervals=((0, len(forces) - 6),))
    (loaded,), _ = load_trial(entry, NO_FILTER)
    assert loaded.n_samples == trial.n_samples - 1


def test_load_trial_rejects_larger_mismatch(tmp_path):
    trial, manifest_path = _write_single_trial_dataset(tmp_path)
    entry = load_manifest(manifest_path)[0]
    rate, forces = read_grf_csv(entry.grf_file)
    write_table(entry.grf_file, GRF_HEADER, timed_lines(1.0 / rate, forces[:-15]))
    entry = replace(entry, contact_intervals=((0, len(forces) - 16),))
    with pytest.raises(LengthMismatchError):
        load_trial(entry, NO_FILTER)


def test_load_trial_checks_dt_against_config(tmp_path):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    entry = load_manifest(manifest_path)[0]
    with pytest.raises(SchemaError, match="dt"):
        load_trial(entry, replace(DEFAULTS, dt=0.01, horizons_ms=(120.0,), filter_enabled=False))


def test_velocity_fallback_estimates_and_flags(tmp_path):
    trial, manifest_path = _write_single_trial_dataset(tmp_path)
    entry = load_manifest(manifest_path)[0]
    # rewrite the CoM file without velocity columns
    dt, positions, _ = read_com_csv(entry.com_file)
    write_table(entry.com_file, COM_HEADER_NO_VEL, timed_lines(dt, positions))
    (loaded,), notes = load_trial(entry, NO_FILTER)
    assert any("central differences" in n for n in notes)
    assert_allclose(loaded.velocities[1:-1], trial.velocities[1:-1], atol=2e-2)
    with pytest.raises(SchemaError):
        load_trial(entry, replace(NO_FILTER, velocity_fallback=False))


def test_phase_split_yields_two_trials(tmp_path):
    trial, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    raw["trials"][0]["phase_split"] = {"start_end": 60, "return_begin": 100}
    path = tmp_path / "data" / "split.json"
    path.write_text(json.dumps(raw))
    trials, _ = load_trial(load_manifest(path)[0], NO_FILTER)
    first, second = trials
    assert first.activity_id == "synthetic_start"
    assert second.activity_id == "synthetic_return"
    assert first.n_samples == 61
    assert second.n_samples == trial.n_samples - 100
    assert_array_equal(first.positions, trial.positions[:61])
    assert_array_equal(second.positions, trial.positions[100:])

    raw["trials"][0]["phase_split"] = {"start_end": 100, "return_begin": 60}
    path.write_text(json.dumps(raw))
    with pytest.raises(ManifestError, match="phase_split"):
        load_trial(load_manifest(path)[0], NO_FILTER)


def test_contact_detection_note_when_intervals_missing(tmp_path):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    del raw["trials"][0]["contact_intervals"]
    path = tmp_path / "data" / "auto.json"
    path.write_text(json.dumps(raw))
    (loaded,), notes = load_trial(load_manifest(path)[0], NO_FILTER)
    assert any("auto-detected" in n for n in notes)


# ---------------------------------------------------------------------------
# pipeline and exports


def _small_dataset(tmp_path, n_subjects=3, n_activities=4, n_repeats=2):
    items = protocol_items(n_subjects=n_subjects, n_activities=n_activities, n_repeats=n_repeats)
    return write_dataset(tmp_path / "data", items)


def test_run_pipeline_produces_expected_rows(tmp_path):
    manifest_path = _small_dataset(tmp_path)
    config = replace(DEFAULTS, horizons_ms=(125.0, 250.0), profiles=("zero", "oracle"))
    trials, _ = load_all_trials(load_manifest(manifest_path), config)
    bundle = run_pipeline(config, trials)
    assert len(bundle.metric_rows) == 3 * 2 * 2  # subjects x profiles x horizons
    for row in bundle.metric_rows:
        assert 0.0 <= row.ae <= row.me
        assert row.ada is not None and 0.0 <= row.mda <= row.ada <= 1.0


def test_run_pipeline_empty_is_an_error():
    with pytest.raises(PipelineError):
        run_pipeline(DEFAULTS, [])


def test_single_subject_skips_inference(tmp_path):
    manifest_path = _small_dataset(tmp_path, n_subjects=1)
    config = replace(DEFAULTS, horizons_ms=(125.0,), profiles=("zero",))
    trials, _ = load_all_trials(load_manifest(manifest_path), config)
    bundle = run_pipeline(config, trials)
    assert bundle.metric_rows
    assert not bundle.stat_rows
    assert any("insufficient subjects" in n for n in bundle.notes)


def test_static_only_subject_round_trips_with_empty_direction_cells(tmp_path):
    static = make_trial(
        SyntheticSpec(kind="sinusoid", duration=0.8, dt=0.005, amplitude=0.05),
        subject_id="s00",
        activity_id="hold_still",
        is_static=True,
    )
    config = replace(DEFAULTS, horizons_ms=(125.0,), profiles=("zero",))
    bundle = run_pipeline(config, [static])
    (row,) = bundle.metric_rows
    assert row.ada is None and row.mda is None
    out_dir = tmp_path / "out"
    export_results(bundle, out_dir)
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert lines[1].endswith(",,")  # empty ada and mda cells
    assert json.loads((out_dir / "bundle.json").read_text()) == json.loads(json.dumps(asdict(bundle)))


def test_too_short_trials_land_in_skip_report(tmp_path):
    short = make_trial(
        SyntheticSpec(kind="constant_acceleration", duration=0.3, dt=0.005, accel=1.0),
        subject_id="s00",
        activity_id="short_one",
    )
    ok = make_trial(
        SyntheticSpec(kind="constant_acceleration", duration=0.8, dt=0.005, accel=1.0),
        subject_id="s00",
        activity_id="long_one",
    )
    config = replace(DEFAULTS, horizons_ms=(125.0, 500.0), profiles=("zero",))
    bundle = run_pipeline(config, [short, ok])
    assert any(row.activity_id == "short_one" and row.horizon_ms == 500.0 for row in bundle.skip_rows)
    assert all(row.horizon_ms != 125.0 for row in bundle.skip_rows)  # 0.3 s fits 26 samples
    # the short trial still contributes where it fits
    horizons = {row.horizon_ms for row in bundle.metric_rows}
    assert horizons == {125.0, 500.0}


def test_metrics_csv_header_and_ci_ordering(tmp_path):
    manifest_path = _small_dataset(tmp_path)
    config = replace(DEFAULTS, horizons_ms=(125.0, 250.0))
    trials, _ = load_all_trials(load_manifest(manifest_path), config)
    bundle = run_pipeline(config, trials)
    out_dir = tmp_path / "out"
    export_results(bundle, out_dir)
    header = (out_dir / "metrics.csv").read_text().splitlines()[0]
    assert header == "subject_id,profile,horizon_ms,ae_m,me_m,ada,mda"
    for row in bundle.level_rows:
        assert row.ci_low <= row.mean <= row.ci_high


def test_bundle_json_round_trip(tmp_path):
    manifest_path = _small_dataset(tmp_path)
    config = replace(DEFAULTS, horizons_ms=(125.0, 250.0))
    trials, _ = load_all_trials(load_manifest(manifest_path), config)
    bundle = run_pipeline(config, trials)
    out_dir = tmp_path / "out"
    export_results(bundle, out_dir)
    assert bundle.metric_rows and bundle.stat_rows
    # bundle.json holds every row of the bundle, None as null
    assert json.loads((out_dir / "bundle.json").read_text()) == json.loads(json.dumps(asdict(bundle)))


def test_thread_count_does_not_change_outputs(tmp_path):
    manifest_path = _small_dataset(tmp_path)
    serial = replace(DEFAULTS, horizons_ms=(125.0, 250.0), threads=1)
    threaded = replace(serial, threads=8)
    trials_a, _ = load_all_trials(load_manifest(manifest_path), serial)
    trials_b, _ = load_all_trials(load_manifest(manifest_path), threaded)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    export_results(run_pipeline(serial, trials_a), dir_a)
    export_results(run_pipeline(threaded, trials_b), dir_b)
    for name in sorted(os.listdir(dir_a)):
        a = (dir_a / name).read_bytes()
        b = (dir_b / name).read_bytes()
        assert a == b, f"{name} differs between thread counts"


def _lab_session(tmp_path):
    """A small session as a lab hands it over: CoM files without velocity
    columns, no contact labels, a signed axis map, and every third entry
    split into start and return phases."""
    manifest_path = _small_dataset(tmp_path, n_subjects=2, n_activities=3, n_repeats=2)
    with open(manifest_path) as fh:
        raw = json.load(fh)
    for i, entry in enumerate(raw["trials"]):
        path = os.path.join(os.path.dirname(manifest_path), entry["com_file"])
        dt, positions, _ = read_com_csv(path)
        write_table(path, COM_HEADER_NO_VEL, timed_lines(dt, positions))
        del entry["contact_intervals"]
        entry["axis_map"] = ["-z", "y", "x"]
        if i % 3 == 0:
            entry["phase_split"] = {"start_end": 60, "return_begin": 100}
    with open(manifest_path, "w") as fh:
        json.dump(raw, fh)
    return manifest_path


def test_loading_is_identical_at_any_thread_count(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # so 3 threads means 3 loading processes
    entries = load_manifest(_lab_session(tmp_path))
    loads = []
    for threads in (1, 2, 3):
        loads.append(load_all_trials(entries, replace(DEFAULTS, threads=threads)))
        assert multiprocessing.active_children() == []
    (serial, serial_notes), *others = loads
    assert len(serial) == 16  # 12 entries, 4 of them split
    assert sum("central differences" in n for n in serial_notes) == 12
    assert sum("auto-detected" in n for n in serial_notes) == 12
    for trials, notes in others:
        assert notes == serial_notes
        assert [t.key() for t in trials] == [t.key() for t in serial]
        for a, b in zip(serial, trials):
            assert (a.is_static, a.mass, a.dt) == (b.is_static, b.mass, b.dt)
            for name in ("positions", "velocities", "accel_inputs"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_loading_workers_are_capped_by_entries_and_cpus(tmp_path, monkeypatch):
    entries = load_manifest(_small_dataset(tmp_path, n_subjects=1, n_activities=3, n_repeats=1))
    serial = [trial for entry in entries for trial in load_trial(entry, DEFAULTS)[0]]
    pools = []

    def pool(workers, **kwargs):
        pools.append(workers)
        return real_pool(workers, **kwargs)

    real_pool = concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    for cpus, threads, start_methods, workers in [
        (2, 1, None, 1),  # one worker still forks, so the caller never loads
        (1, 2, None, 1),  # one CPU: capped at one forked worker
        (None, 2, None, 1),  # an unknown CPU count counts as one
        (3, 8, None, 3),  # capped by the CPU count
        (8, 8, None, 3),  # capped by the entry count
        (2, 2, ["spawn"], None),  # no fork: load in the caller
    ]:
        pools.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        if start_methods is not None:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: start_methods)
        loaded = loaded_entries(entries, replace(DEFAULTS, threads=threads))
        trials = [trial for built, _ in loaded for trial in built]
        assert pools == ([] if workers is None else [workers])
        assert [t.accel_inputs.tobytes() for t in trials] == [t.accel_inputs.tobytes() for t in serial]
        assert multiprocessing.active_children() == []


def test_malformed_grf_row_in_a_middle_entry_exits_1_at_any_thread_count(tmp_path, capsys):
    manifest_path = _small_dataset(tmp_path, n_subjects=1, n_activities=5, n_repeats=1)
    path = load_manifest(manifest_path)[2].grf_file
    _set_cell(path, 9, 3, "x")
    errors = []
    for command, threads in [("run", "1"), ("run", "2"), ("run", "8"), ("preprocess", "1"), ("preprocess", "2")]:
        args = [command, "--manifest", str(manifest_path), "--out", str(tmp_path / "out"), "--threads", threads]
        assert main(args) == 1
        errors.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert f"{path}:9:" in errors[0]
    assert errors == [errors[0]] * 5


def test_loading_fault_exits_2_and_leaves_no_worker(tmp_path, capsys, monkeypatch):
    manifest_path = _small_dataset(tmp_path, n_subjects=1, n_activities=5, n_repeats=1)
    middle = load_manifest(manifest_path)[2]
    load_trial = pipeline.load_trial

    def faulty(entry, config):
        if entry == middle:
            raise RuntimeError("fault in the middle entry")
        return load_trial(entry, config)

    monkeypatch.setattr(pipeline, "load_trial", faulty)  # what forked workers run too
    for threads in ("1", "2"):
        args = ["run", "--manifest", str(manifest_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--threads", threads]) == 2
        assert capsys.readouterr().err == "pipeline error: fault in the middle entry\n"
        assert multiprocessing.active_children() == []


def _caller_modules(args, prelude=""):
    """Whether scipy.signal, the sosfilt kernel and scipy.special are loaded
    in a process that ran the command line args after the prelude's lines."""
    script = (
        "import multiprocessing, os, sys\n"
        + prelude
        + "from compredict.cli import main\n"
        f"code = main({args!r})\n"
        "print(code, 'scipy.signal' in sys.modules, 'scipy.signal._sosfilt' in sys.modules, 'scipy.special' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()[-4:]


def _command_args(tmp_path, command, threads):
    manifest_path = _small_dataset(tmp_path, n_subjects=2, n_activities=2, n_repeats=1)
    return [command, "--manifest", str(manifest_path), "--out", str(tmp_path / "out"), "--threads", threads]


# no command imports scipy.special: the statistics compute their t and F
# tails with math alone
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork: every command loads in the caller")
@pytest.mark.parametrize("threads, cpus", [("1", None), ("2", 1), ("2", None)])  # None: the host's CPU count
@pytest.mark.parametrize("command", ["run", "predict", "preprocess"])
def test_no_command_leaves_scipy_signal_in_the_caller(tmp_path, command, threads, cpus):
    # every command that loads trials loads them on forked processes, at one
    # worker too, so the caller loads neither scipy.signal nor the kernel
    prelude = "" if cpus is None else f"os.cpu_count = lambda: {cpus}\n"
    assert _caller_modules(_command_args(tmp_path, command, threads), prelude) == ["0", "False", "False", "False"]


@pytest.mark.parametrize("command", ["run", "predict", "preprocess"])
def test_without_fork_the_caller_filters_without_scipy_signal(tmp_path, command):
    # a platform without fork loads in the caller, which loads the kernel alone
    prelude = "multiprocessing.get_all_start_methods = lambda: ['spawn']\n"
    assert _caller_modules(_command_args(tmp_path, command, "2"), prelude) == ["0", "False", "True", "False"]


def test_analyze_leaves_no_scipy_subpackage_in_the_caller(tmp_path):
    assert main(_command_args(tmp_path, "run", "1")) == 0
    args = ["analyze", "--metrics-csv", str(tmp_path / "out" / "metrics.csv"), "--out", str(tmp_path / "stats")]
    assert _caller_modules(args) == ["0", "False", "False", "False"]
    for name in ("tests.csv", "levels.csv"):  # statistics were computed
        assert len((tmp_path / "stats" / name).read_text().splitlines()) > 1


def test_cli_profile_names_are_case_insensitive(tmp_path):
    manifest_path = _small_dataset(tmp_path)
    outputs = []
    for names in ("zero,const,cubic", "Zero,Const,Cubic"):
        out = tmp_path / names
        assert main(["run", "--manifest", str(manifest_path), "--out", str(out), "--profiles", names]) == 0
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    lower, mixed = outputs
    assert mixed == lower
    for name in ("fits.csv", "levels.csv", "tests.csv"):
        assert lower[name].count(b"\n") > 1, f"{name} holds only its header"


# ---------------------------------------------------------------------------
# command line


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "compredict.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cli_synth_run_report_round_trip(tmp_path):
    synth = run_cli("synth", "--out", tmp_path / "data", "--subjects", 2, "--activities", 3, "--repeats", 1)
    assert synth.returncode == 0, synth.stderr

    run = run_cli(
        "run",
        "--manifest", tmp_path / "data" / "manifest.json",
        "--out", tmp_path / "results",
        "--horizons", "125,250",
        "--threads", 2,
    )
    assert run.returncode == 0, run.stderr
    for name in ("bundle.json", "metrics.csv", "tests.csv", "fits.csv", "levels.csv", "skips.csv"):
        assert (tmp_path / "results" / name).exists()

    # analyze reads the run's metrics.csv back and writes the same statistics
    analyze = run_cli("analyze", "--metrics-csv", tmp_path / "results" / "metrics.csv", "--out", tmp_path / "replay")
    assert analyze.returncode == 0, analyze.stderr
    for name in ("metrics.csv", "tests.csv", "fits.csv", "levels.csv"):
        assert (tmp_path / "replay" / name).read_bytes() == (tmp_path / "results" / name).read_bytes()


def test_cli_metrics_and_analyze(tmp_path):
    # analyze takes its profiles from the rows, so a run of two profiles
    # gives back that run's statistics
    run_cli("synth", "--out", tmp_path / "data", "--subjects", 3, "--activities", 3, "--repeats", 1)
    run = run_cli(
        "run",
        "--manifest", tmp_path / "data" / "manifest.json",
        "--out", tmp_path / "m",
        "--horizons", "125,250",
        "--profiles", "zero,cubic",
    )
    assert run.returncode == 0, run.stderr
    analyze = run_cli(
        "analyze", "--metrics-csv", tmp_path / "m" / "metrics.csv", "--out", tmp_path / "stats"
    )
    assert analyze.returncode == 0, analyze.stderr
    for name in ("tests.csv", "fits.csv", "levels.csv"):
        assert (tmp_path / "stats" / name).read_bytes() == (tmp_path / "m" / name).read_bytes()


def test_cli_preprocess_and_predict(tmp_path):
    run_cli("synth", "--out", tmp_path / "data", "--subjects", 1, "--activities", 2, "--repeats", 1)
    pre = run_cli(
        "preprocess", "--manifest", tmp_path / "data" / "manifest.json", "--out", tmp_path / "pre"
    )
    assert pre.returncode == 0, pre.stderr
    assert len(os.listdir(tmp_path / "pre")) == 2

    predict = run_cli(
        "predict",
        "--manifest", tmp_path / "data" / "manifest.json",
        "--out", tmp_path / "pred",
        "--horizons", "125",
        "--profiles", "zero",
    )
    assert predict.returncode == 0, predict.stderr
    lines = (tmp_path / "pred" / "horizons.csv").read_text().splitlines()
    assert lines[0].startswith("subject_id,activity_id")
    assert len(lines) > 100


def test_cli_preprocess_files_hold_exact_accelerations(tmp_path, capsys):
    manifest_path = _small_dataset(tmp_path, n_subjects=1, n_activities=2, n_repeats=1)
    assert main(["preprocess", "--manifest", str(manifest_path), "--out", str(tmp_path / "pre")]) == 0
    trials, _ = load_all_trials(load_manifest(manifest_path), DEFAULTS)
    for trial in trials:
        name = f"{trial.subject_id}_{trial.activity_id}_{trial.repeat_index}_accel.csv"
        header, *lines = (tmp_path / "pre" / name).read_text().splitlines()
        assert header == "time_s,ax,ay,az"
        table = [[float(cell) for cell in line.split(",")] for line in lines]
        assert [row[0] for row in table] == [i * trial.dt for i in range(trial.n_samples)]
        assert_array_equal(np.array([row[1:] for row in table]), trial.accel_inputs)


def test_cli_preprocess_writes_the_same_files_at_any_thread_count(tmp_path, capsys):
    manifest_path = _lab_session(tmp_path)
    trees = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"pre{threads}"
        assert main(["preprocess", "--manifest", str(manifest_path), "--out", str(out), "--threads", threads]) == 0
        assert multiprocessing.active_children() == []
        trees.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(trees[0]) == 16
    assert trees == [trees[0]] * 3


def test_cli_predict_rows_match_sweep(tmp_path, capsys):
    manifest_path = _small_dataset(tmp_path, n_subjects=1, n_activities=2, n_repeats=1)
    # a non-default profile order, and a 2 s horizon longer than every trial, which adds no rows
    args = ["--horizons", "125,2000,250", "--profiles", "cubic,zero"]
    for threads in ("1", "3"):
        out = str(tmp_path / f"pred{threads}")
        assert main(["predict", "--manifest", str(manifest_path), "--out", out, *args, "--threads", threads]) == 0
    table = (tmp_path / "pred1" / "horizons.csv").read_bytes()
    assert (tmp_path / "pred3" / "horizons.csv").read_bytes() == table
    header, *lines = table.decode().splitlines()
    assert header == ",".join(HORIZONS_HEADER)
    written = [
        (c[0], c[1], int(c[2]), c[3], c[4], int(c[5]), float(c[6]), float(c[7]), int(c[8]))
        for c in (line.split(",") for line in lines)
    ]
    config = replace(DEFAULTS, horizons_ms=(125.0, 250.0), profiles=("cubic", "zero"))
    trials, _ = load_all_trials(load_manifest(manifest_path), config)
    expected = []
    for trial in trials:
        for kind in (ProfileKind.CUBIC, ProfileKind.ZERO):
            for t_ms in (125.0, 250.0):
                spec = HorizonSpec.from_duration(t_ms, config.dt)
                errors, scores = sweep_errors(trial, spec, kind)
                expected.extend(
                    (
                        trial.subject_id,
                        trial.activity_id,
                        trial.repeat_index,
                        kind.value,
                        repr(t_ms),
                        row,
                        float(series.mean()),
                        float(series.max()),
                        int(score),
                    )
                    for row, (series, score) in enumerate(zip(errors, scores))
                )
    assert written == expected


def _rename_subjects(manifest_path, names):
    """Give the manifest's subjects the new ids in `names`, old id -> new id."""
    raw = json.loads(Path(manifest_path).read_text())
    for entry in raw["trials"]:
        entry["subject_id"] = names.get(entry["subject_id"], entry["subject_id"])
    Path(manifest_path).write_text(json.dumps(raw))


def test_cli_quotes_text_cells_that_hold_a_comma_or_a_quote(tmp_path, capsys):
    manifest_path = _small_dataset(tmp_path, n_subjects=2, n_activities=2, n_repeats=1)
    _rename_subjects(manifest_path, {"s00": "Smith, J", "s01": 'O"Neil'})
    common = ["--manifest", str(manifest_path), "--horizons", "125,250", "--profiles", "zero,const"]
    assert main(["run", *common, "--out", str(tmp_path / "run")]) == 0
    assert main(["analyze", "--metrics-csv", str(tmp_path / "run" / "metrics.csv"), "--out", str(tmp_path / "a")]) == 0
    with open(tmp_path / "a" / "metrics.csv", newline="") as fh:
        assert {row[0] for row in list(csv.reader(fh))[1:]} == {"Smith, J", 'O"Neil'}
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "run" / "metrics.csv").read_bytes()

    assert main(["predict", *common, "--out", str(tmp_path / "pred")]) == 0
    with open(tmp_path / "pred" / "horizons.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 100
    assert {len(row) for row in rows} == {9}
    assert {row[0] for row in rows[1:]} == {"Smith, J", 'O"Neil'}


@pytest.mark.parametrize(
    "names, keys",
    [
        ({"s00": "p_q", "s01": "p"}, ["p_q/r/0", "p/q_r/0"]),
        ({"s00": "../escaped"}, ["../escaped/r/0"]),
        ({"s00": "x/y"}, ["x/y/r/0"]),
        ({"s00": "x\0y"}, ["x\0y/r/0"]),
    ],
    ids=["two-trials-one-file-name", "name-outside-out", "name-in-a-subdirectory", "name-with-a-nul"],
)
def test_cli_preprocess_rejects_file_names_it_cannot_write_apart(tmp_path, capsys, names, keys):
    manifest_path = _small_dataset(tmp_path, n_subjects=2, n_activities=1, n_repeats=1)
    raw = json.loads(Path(manifest_path).read_text())
    for entry, activity in zip(raw["trials"], ["r", "q_r"]):
        entry["activity_id"] = activity
    Path(manifest_path).write_text(json.dumps(raw))
    _rename_subjects(manifest_path, names)
    out = tmp_path / "work" / "pre"
    assert main(["preprocess", "--manifest", str(manifest_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest_path}: ")
    for key in keys:
        assert key in err
    assert not (tmp_path / "work").exists()  # rejected before anything is written


@pytest.fixture(scope="module")
def small_synth_session(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--subjects", "4", "--activities", "4", "--repeats", "2"]) == 0
    return out / "manifest.json"


def _tables(out_dir, names=("tests.csv", "fits.csv", "levels.csv")):
    return {name: (out_dir / name).read_bytes() for name in names}


def test_cli_skips_csv_quotes_its_reasons(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--subjects", "2", "--activities", "2", "--repeats", "1"]) == 0
    args = ["run", "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "out"), "--horizons", "125,60000"]
    assert main(args) == 0
    skips = json.loads((tmp_path / "out" / "bundle.json").read_text())["skip_rows"]
    with open(tmp_path / "out" / "skips.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(skips) == 4 and all("," in skip["reason"] for skip in skips)
    assert rows[0][-1] == "reason"
    assert [row[-1] for row in rows[1:]] == [skip["reason"] for skip in skips]


def test_cli_trend_fits_do_not_depend_on_horizon_order(tmp_path, small_synth_session, capsys):
    for name, horizons in (("up", "125,250,375,500,625"), ("shuffled", "625,125,250,375,500")):
        args = ["run", "--manifest", str(small_synth_session), "--out", str(tmp_path / name), "--horizons", horizons]
        assert main(args) == 0
    up, shuffled = _tables(tmp_path / "up"), _tables(tmp_path / "shuffled")
    assert shuffled["fits.csv"] == up["fits.csv"]
    for name in ("tests.csv", "levels.csv"):
        assert set(shuffled[name].splitlines()) == set(up[name].splitlines())
        assert len(shuffled[name].splitlines()) == len(up[name].splitlines())


def test_cli_analyze_reproduces_the_statistics_of_run(tmp_path, small_synth_session, capsys):
    assert main(["run", "--manifest", str(small_synth_session), "--out", str(tmp_path / "run")]) == 0
    assert main(["analyze", "--metrics-csv", str(tmp_path / "run" / "metrics.csv"), "--out", str(tmp_path / "a")]) == 0
    assert _tables(tmp_path / "a") == _tables(tmp_path / "run")


def test_cli_analyze_takes_welch_df_on_errors_too_small_to_square(tmp_path):
    # ae_m ~ 1e-85 h m: each se**2 underflows to 0 in the Welch-Satterthwaite
    # df, which is scale-invariant, so the pairwise tests match the file
    # scaled by 1e80
    rng = np.random.default_rng(17)
    spread = rng.normal(size=(6, 3, 5))
    tests = {}
    for scale in (1e-85, 1e-5):
        rows = [
            (f"s{s:02d}", profile, h, scale * h * (f + 0.1 * spread[s, p, i]), 0.5 * scale * h * f, 0.5 + 0.1 * spread[s, p, i], 0.4)
            for s in range(6)
            for p, (profile, f) in enumerate((("zero", 1.0), ("const", 0.6), ("cubic", 0.3)))
            for i, h in enumerate((125.0, 250.0, 375.0, 500.0, 625.0))
        ]
        write_table(tmp_path / f"{scale}.csv", METRICS_HEADER, map(format_row, rows))
        assert main(["analyze", "--metrics-csv", str(tmp_path / f"{scale}.csv"), "--out", str(tmp_path / str(scale))]) == 0
        with open(tmp_path / str(scale) / "tests.csv", newline="") as fh:
            tests[scale] = [row for row in csv.DictReader(fh) if row["df1"] and not row["df2"]]
    assert len(tests[1e-85]) == len(tests[1e-5]) > 0
    for tiny, scaled in zip(tests[1e-85], tests[1e-5]):
        assert tiny["comparison"] == scaled["comparison"]
        for key in ("statistic", "df1", "p_value"):
            assert_allclose(float(tiny[key]), float(scaled[key]), rtol=1e-12)


@pytest.mark.parametrize(
    "bad_row",
    [
        ("s01", "zero", "abc", 0.1, 0.2, 0.5, 0.4),
        ("s01", "zero", 125.0, 0.1, "", 0.5, 0.4),
        ("s01", "zero", 125.0, 0.1, 0.2, 0.5),
        ("s01", "ballistic", 125.0, 0.1, 0.2, 0.5, 0.4),
        # the subject, profile and horizon of the first row again
        ("s00", "zero", 125.0, 0.1, 0.2, 0.5, 0.4),
        ("s00", "Zero", "125", 0.3, 0.4, 0.5, 0.4),
        ("s01", "zero", 125.0, float("nan"), 0.2, 0.5, 0.4),
        ("s01", "zero", 125.0, 0.1, float("inf"), 0.5, 0.4),
        ("s01", "zero", 125.0, 0.1, 0.2, 0.5, float("-inf")),
        # not a whole number of the default 5 ms samples
        ("s01", "zero", 127.0, 0.1, 0.2, 0.5, 0.4),
    ],
)
def test_cli_analyze_rejects_malformed_metrics_row_naming_file_and_line(tmp_path, capsys, bad_row):
    path = tmp_path / "metrics.csv"
    write_table(path, METRICS_HEADER, map(format_row, [("s00", "zero", 125.0, 0.1, 0.2, 0.5, 0.4), bad_row]))
    assert main(["analyze", "--metrics-csv", str(path), "--out", str(tmp_path / "stats")]) == 1
    err = capsys.readouterr().err
    assert f"{path}:3:" in err
    if bad_row[2] == 127.0:
        assert "dt = 0.005 s is set with --config" in err


@pytest.mark.parametrize("command", ["synth", "preprocess", "predict", "run", "analyze"])
def test_cli_out_naming_an_existing_file_is_an_input_error(tmp_path, capsys, command):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    metrics_path = tmp_path / "metrics.csv"
    write_table(metrics_path, METRICS_HEADER, map(format_row, [("s00", "zero", 125.0, 0.1, 0.2, 0.5, 0.4)]))
    inputs = {"synth": [], "analyze": ["--metrics-csv", str(metrics_path)]}
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    # the file itself, and a directory that would have to be made below it
    for out in (afile, afile / "sub"):
        assert main([command, "--out", str(out), *inputs.get(command, ["--manifest", str(manifest_path)])]) == 1
        assert f"--out: {afile} exists and is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--manifest", "m.json", "--out", "o", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["run", "--out", "o"], "the following arguments are required: --manifest"),
        (["simulate", "--out", "o"], "invalid choice: 'simulate'"),
        ([], "the following arguments are required: command"),
        # flags a subcommand would ignore are not accepted
        (["synth", "--out", "o", "--format", "json"], "unrecognized arguments: --format"),
        (["predict", "--manifest", "m.json", "--out", "o", "--format", "csv"], "unrecognized arguments: --format"),
        (["preprocess", "--manifest", "m.json", "--out", "o", "--horizons", "125"], "unrecognized arguments"),
        (["preprocess", "--manifest", "m.json", "--out", "o", "--profiles", "zero"], "unrecognized arguments"),
        (["synth", "--out", "o", "--threads", "2"], "unrecognized arguments"),
        (["preprocess", "--manifest", "m.json", "--out", "o", "--format", "csv"], "unrecognized arguments"),
        # the retired --format flag and report and metrics subcommands
        (["run", "--manifest", "m.json", "--out", "o", "--format", "csv"], "unrecognized arguments: --format csv"),
        (["analyze", "--metrics-csv", "m.csv", "--out", "o", "--format", "json"], "unrecognized arguments: --format"),
        (["report", "--bundle", "bundle.json", "--out", "o"], "invalid choice: 'report'"),
        (["metrics", "--manifest", "m.json", "--out", "o"], "invalid choice: 'metrics'"),
    ],
)
def test_cli_usage_errors_exit_1_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: compredict") and message in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"], ["preprocess", "--help"]])
def test_cli_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_cli_help_lists_only_the_flags_each_subcommand_reads(capsys):
    taken = {}
    for command in ("preprocess", "predict", "run", "analyze"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        shown = capsys.readouterr().out
        taken[command] = {flag for flag in FLAGS if flag in shown}
    sweep = {"--profiles", "--horizons", "--threads"}
    assert taken == {
        "preprocess": {"--threads"},
        "predict": sweep,
        "run": sweep,
        "analyze": set(),
    }


def _set_cell(path, lineno, column, text):
    lines = Path(path).read_text().splitlines()
    cells = lines[lineno - 1].split(",")
    cells[column] = text
    lines[lineno - 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "file_key, change",
    [
        ("com_file", ("csv", 5, 2, "nan")),
        ("grf_file", ("csv", 9, 3, "inf")),
        ("manifest", ("contact_intervals", [["a", 5]])),
        ("manifest", ("contact_intervals", [[0]])),
        ("manifest", ("repeat_index", "x")),
        ("manifest", ("is_static", "no")),
        ("manifest", ("axis_map", 5)),
        ("manifest", ("axis_map", ["x", "q", "z"])),
        ("manifest", ("axis_map", ["x", "x", "z"])),
        ("manifest", ("com_file", 5)),
        ("manifest", ("subject_id", None)),
        ("manifest", ("subject_id", True)),
        ("manifest", ("activity_id", ["a"])),
        ("manifest", ("activity_id", {"a": 1})),
        ("manifest", ("mass_kg", float("nan"))),
        ("manifest", ("mass_kg", True)),
        ("manifest", ("mass_kg", "70")),
        ("manifest", ("repeat_index", 0.9)),
        ("manifest", ("repeat_index", True)),
        ("manifest", ("contact_intervals", [[0.5, 100]])),
        ("manifest", ("contact_intervals", [[False, 100]])),
        ("manifest", ("phase_split", {"start_end": 60.5, "return_begin": 100})),
        ("manifest_root", ("trials", 5)),
        ("config", "filter_cutoff_hz = 600\n"),
        ("config", "filter_padlen = 100000\n"),
        ("manifest_copy", None),
        ("manifest_copy", {"start_end": 60, "return_begin": 100}),
    ],
    ids=[
        "nan-in-com",
        "inf-in-grf",
        "non-integer-interval",
        "one-element-interval",
        "non-integer-repeat",
        "string-is-static",
        "non-list-axis-map",
        "unknown-axis-in-axis-map",
        "repeated-axis-in-axis-map",
        "non-string-com-file",
        "null-subject-id",
        "boolean-subject-id",
        "list-activity-id",
        "object-activity-id",
        "nan-mass",
        "boolean-mass",
        "string-mass",
        "fractional-repeat",
        "boolean-repeat",
        "fractional-interval",
        "boolean-interval",
        "fractional-phase-split",
        "non-list-trials",
        "cutoff-above-grf-nyquist",
        "padlen-beyond-grf-length",
        "repeated-trial-key",
        "trial-key-repeating-a-phase-split-half",
    ],
)
def test_cli_malformed_input_exits_1_naming_the_file(tmp_path, capsys, file_key, change):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    args = ["run", "--manifest", str(manifest_path), "--out", str(tmp_path / "out")]
    if file_key == "config":  # a filter setting that this trial's GRF file cannot take
        config = tmp_path / "run.cfg"
        config.write_text(change)
        args += ["--config", str(config)]
        where = os.path.join(os.path.dirname(manifest_path), raw["trials"][0]["grf_file"])
    elif file_key == "manifest_copy":  # a second entry giving a trial key of the first, split or not
        first = dict(raw["trials"][0], phase_split=change)
        activity = first["activity_id"] + ("" if change is None else "_return")
        raw["trials"] = [first, {**first, "phase_split": None, "activity_id": activity}]
        Path(manifest_path).write_text(json.dumps(raw))
        key = f"{first['subject_id']}/{activity}/{first['repeat_index']}"
        where = f"{manifest_path}: manifest trial 1: trial key {key} repeats manifest trial 0"
    elif file_key.startswith("manifest"):
        key, value = change
        if file_key == "manifest":
            raw["trials"][0][key] = value
            where = f"{manifest_path}: manifest trial 0"
        else:
            raw[key] = value
            where = str(manifest_path)
        Path(manifest_path).write_text(json.dumps(raw))
    else:
        _, lineno, column, text = change
        path = os.path.join(os.path.dirname(manifest_path), raw["trials"][0][file_key])
        _set_cell(path, lineno, column, text)
        where = f"{path}:{lineno}:"
    assert main(args) == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("file_key", ["com_file", "grf_file", "metrics", "config", "manifest"])
def test_cli_file_that_cannot_be_read_as_text_or_csv_exits_1_naming_it(tmp_path, capsys, file_key):
    # a byte that is not UTF-8, or (grf_file) a field past csv's size limit
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    args = ["run", "--manifest", str(manifest_path), "--out", str(tmp_path / "out")]
    if file_key == "metrics":
        path = tmp_path / "metrics.csv"
        path.write_bytes(",".join(METRICS_HEADER).encode() + b"\ns\xff,zero,125.0,0.1,0.2,0.5,0.4\n")
        args = ["analyze", "--metrics-csv", str(path), "--out", str(tmp_path / "out")]
    elif file_key == "config":
        path = tmp_path / "run.cfg"
        path.write_bytes(b"alpha = \xff\n")
        args += ["--config", str(path)]
    elif file_key == "manifest":
        path = Path(manifest_path)
        path.write_bytes(path.read_bytes().replace(b'"s00"', b'"s\xff"'))
    else:
        path = os.path.join(os.path.dirname(manifest_path), raw["trials"][0][file_key])
        tail = b'9,1,2,"' + b"1" * 200_000 + b'"\n' if file_key == "grf_file" else b"9,1,2,3,\xff\n"
        Path(path).write_bytes(Path(path).read_bytes() + tail)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and f" {path}: " in err


@pytest.mark.parametrize("file_key", ["com_file", "grf_file"])
def test_cli_header_only_file_prints_one_error_line(tmp_path, capsys, file_key):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    raw = json.loads(Path(manifest_path).read_text())
    path = os.path.join(os.path.dirname(manifest_path), raw["trials"][0][file_key])
    header = Path(path).read_text().splitlines(keepends=True)[0]
    Path(path).write_text(header)
    assert main(["run", "--manifest", str(manifest_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {path}: need at least 2 samples, got 0\n"


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--threads", "0"),
        ("--horizons", "125,abc"),
        ("--horizons", "125,9e99"),
        ("--profiles", ","),
        ("--profiles", "zero,zero"),
        ("--profiles", "zero,Zero"),
        ("--horizons", "125,125"),
        # config-file settings, written as "key = value"
        ("horizons_ms", "125,"),
        ("filter_order", "0"),
        ("filter_cutoff_hz", "-1"),
        ("gravity", "nan"),
        ("filter_padlen", "-3"),
        ("contact_hold_samples", "0"),
        ("contact_threshold_n", "-5"),
        ("contact_threshold_n", "inf"),
        ("filter_cutoff_hz", "inf"),
        # the retired flags and keys, rejected whatever their value
        ("--format", "xml"),
        ("--stride", "0"),
        ("--stride", "two"),
        ("--stride", "2"),
        ("stride", "2"),
        ("bonferroni_m", "-2"),
        ("aggregation", "pooled"),
        ("bonferroni_m", "0"),
        ("cohens_d_variant", "unequal"),
        ("out_format", "csv"),
        # synth flags
        ("--dt", "0"),
        ("--dt", "nan"),
        ("--dt", "inf"),
        ("--dt", "0.0051"),
        ("--subjects", "-1"),
        ("--activities", "0"),
        ("--repeats", "0"),
        ("--subjects", "abc"),
        ("--activities", "1.5"),
        ("--repeats", ""),
        ("--dt", "1e"),
    ],
)
def test_cli_malformed_override_exits_1_naming_the_setting(tmp_path, capsys, flag, text):
    _, manifest_path = _write_single_trial_dataset(tmp_path)
    args = ["run", "--manifest", str(manifest_path), "--out", str(tmp_path / "out")]
    if flag in ("--dt", "--subjects", "--activities", "--repeats"):
        args = ["synth", "--out", str(tmp_path / "synth"), "--subjects=1", "--activities=1", "--repeats=1"]
    if flag.startswith("--"):
        args.append(f"{flag}={text}")
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag} = {text}\n")
        args += ["--config", str(config)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert flag in err
    if flag in ("aggregation", "bonferroni_m", "cohens_d_variant", "out_format", "stride"):
        assert f"unknown configuration key {flag!r}" in err


def test_cli_exit_codes(tmp_path):
    missing = run_cli("run", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "x")
    assert missing.returncode == 1
    assert "error" in missing.stderr

    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("nonsense = 1\n")
    run_cli("synth", "--out", tmp_path / "data", "--subjects", 1, "--activities", 1, "--repeats", 1)
    bad = run_cli(
        "run",
        "--manifest", tmp_path / "data" / "manifest.json",
        "--out", tmp_path / "x",
        "--config", bad_config,
    )
    assert bad.returncode == 1

    empty_manifest = tmp_path / "empty.json"
    empty_manifest.write_text('{"trials": []}')
    empty = run_cli("run", "--manifest", empty_manifest, "--out", tmp_path / "x")
    assert empty.returncode == 1
    predicted = run_cli("predict", "--manifest", empty_manifest, "--out", tmp_path / "p")
    assert predicted.returncode == 0, predicted.stderr
    assert (tmp_path / "p" / "horizons.csv").read_text() == ",".join(HORIZONS_HEADER) + "\n"
