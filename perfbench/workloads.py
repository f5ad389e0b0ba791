"""Seeded input generators for the benchmark workloads.

Every workload is built from the public synthetic API
(`compredict.synth.SyntheticSpec`, `make_trial`) and written with
`compredict.io.write_dataset`; the program under test only ever sees the
files written here. The seed moves trial parameters around inside fixed
ranges but never the amount of work: every seed gives the same number of
trials, samples and horizon evaluations, so timings from different seeds are
comparable.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

from compredict.dynamics import STANDARD_GRAVITY
from compredict.io import DEFAULTS, write_dataset
from compredict.synth import STATIC_ACTIVITY_SLOTS, SyntheticSpec, make_trial, sign_reversal_spec

DT = 0.005  # 200 Hz marker rate
GRF_FACTOR = 5  # force plate at 1 kHz

WHY = {
    "desk_session": (
        "paper-scale 10x14x3 protocol at 2 threads: 8,400 small sweeps, so per-call "
        "overhead, batching and the thread pool show; all outcomes are held until the reduction"
    ),
    "long_recording": (
        "2 subjects x one 1-min recording at 1 thread: 40 huge sweeps whose (starts, n, 3) "
        "temporaries set both time and peak memory"
    ),
    "lab_preprocess": (
        "desk-shaped session in lab format through `preprocess`: no sweep at all, so CSV "
        "parsing, contact detection, velocity fallback, filtering and the writer do the work"
    ),
}

# lab frame -> X / Y-up / Z; entry i names the lab axis that becomes our axis i
LAB_AXIS_MAP = ("x", "z", "-y")
LAB_AXES = ((0, 1.0), (2, 1.0), (1, -1.0))  # the same map as (lab column, sign)
FLIGHT_SAMPLES = 10  # 50 ms of zero force per trial, at the marker rate
SPLIT_GAP = 5  # phase_split drops 2 * SPLIT_GAP - 1 marker samples mid-trial


@dataclass(frozen=True)
class Inputs:
    """What setup wrote, and the size of the work it implies."""

    manifest: str
    trials: int  # trials the program builds (phase-split entries count twice)
    samples: int  # marker-rate samples over all trials
    grf_samples: int  # force-plate samples over all files
    horizon_evaluations: int  # sweep starts over trials x profiles x horizons
    subjects: int
    accel_rows: int  # rows `preprocess` writes (lab_preprocess only, else 0)
    generate_s: float
    write_dataset_s: float


def _desk_items(seed: int):
    """The synth.protocol_items session with seed-jittered parameters.

    Ranges match protocol_items. Durations come from the same per-subject
    multiset of `salt` values, shuffled, so the total sample count (and with
    it the sweep work) is identical for every seed.
    """
    rng = np.random.default_rng(seed)
    items = []
    for s in range(10):
        subject_id = f"s{s:02d}"
        mass = rng.uniform(55.0, 77.5)
        salts = [(7 * s + 3 * a + r) % 5 for a in range(14) for r in range(3)]
        salts = [salts[i] for i in rng.permutation(len(salts))]
        for a in range(14):
            activity_id = f"act{a + 1:02d}"
            is_static = a in STATIC_ACTIVITY_SLOTS
            for r in range(3):
                salt = salts[3 * a + r]
                duration = 0.8 + 0.1 * salt
                if is_static:
                    spec = SyntheticSpec(
                        kind="sinusoid", duration=duration, dt=DT, mass=mass,
                        amplitude=rng.uniform(0.05, 0.09), frequency_hz=rng.uniform(0.8, 1.0),
                    )
                elif a % 3 == 0:
                    accel = [rng.uniform(0.6, 1.0), rng.uniform(-0.2, -0.1), rng.uniform(0.1, 0.3)]
                    spec = SyntheticSpec(
                        kind="constant_acceleration", duration=duration, dt=DT, mass=mass,
                        accel=np.array(accel),
                    )
                elif a % 3 == 1:
                    spec = SyntheticSpec(
                        kind="sinusoid", duration=duration, dt=DT, mass=mass,
                        amplitude=rng.uniform(0.8, 1.2), frequency_hz=rng.uniform(0.5, 1.0),
                    )
                else:
                    spec = sign_reversal_spec(
                        accel_mag=rng.uniform(0.9, 1.3), t_flip=rng.uniform(0.4, 0.5),
                        duration=duration + 0.4, dt=DT, mass=mass,
                    )
                trial = make_trial(
                    spec, subject_id=subject_id, activity_id=activity_id,
                    repeat_index=r, is_static=is_static,
                )
                items.append((subject_id, activity_id, r, is_static, trial))
    return items


def _long_items(seed: int, seconds: float = 60.0):
    """Two subjects, each one mixed piecewise-constant recording.

    Segments come in (+a, -a) pairs of equal length, with rests between, so
    velocity returns to zero after every pair and positions stay bounded.
    """
    rng = np.random.default_rng(seed)
    total = int(round(seconds / DT))
    items = []
    for s in range(2):
        segments, used = [], 0
        while used < total:
            steps = int(rng.integers(50, 401))  # 0.25-2 s per half of a pair
            accel = rng.uniform(-1.5, 1.5, 3)
            rest = int(rng.integers(20, 201))
            for length, value in ((steps, accel), (steps, -accel), (rest, np.zeros(3))):
                length = min(length, total - used)
                if length > 0:
                    segments.append((length * DT, value))
                    used += length
        spec = SyntheticSpec(
            kind="piecewise_constant", duration=seconds, dt=DT,
            mass=rng.uniform(55.0, 77.5), segments=tuple(segments),
        )
        trial = make_trial(spec, subject_id=f"s{s:02d}", activity_id="mixed")
        items.append((trial.subject_id, "mixed", 0, False, trial))
    return items


def _to_lab_frame(trial, flight_start: int):
    """Re-express a trial as a lab would record it.

    Positions and velocities move into the lab axes, and a flight phase of
    FLIGHT_SAMPLES has zero ground reaction force. write_dataset writes
    mass * (accel + g along file column 1), so the stored accel is chosen to
    make that the lab-frame GRF, with gravity support on the lab's vertical
    axis and exactly 0 N in flight.
    """
    g = STANDARD_GRAVITY

    def to_lab(ours):
        lab = np.empty_like(ours)
        for axis, (src, sign) in enumerate(LAB_AXES):
            lab[:, src] = sign * ours[:, axis]
        return lab

    support = trial.accel_inputs.copy()
    support[:, 1] += g
    support[flight_start : flight_start + FLIGHT_SAMPLES] = 0.0
    stored = to_lab(support)
    stored[:, 1] -= g
    return replace(
        trial,
        positions=to_lab(trial.positions),
        velocities=to_lab(trial.velocities),
        accel_inputs=stored,
    )


def _lab_rewrite(out_dir: str, n_samples):
    """Turn write_dataset's tidy output into lab-format input.

    CoM files lose their velocity columns (the program must fall back to
    central differences), the manifest loses its contact labels (contacts
    are auto-detected) and gains the lab axis_map, and every fourth entry
    is phase-split into start and return trials.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for i, entry in enumerate(manifest["trials"]):
        path = os.path.join(out_dir, entry["com_file"])
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(",".join(line.split(",", 4)[:4]) + "\n" for line in lines)
        del entry["contact_intervals"]
        entry["axis_map"] = list(LAB_AXIS_MAP)
        if i % 4 == 0:
            mid = n_samples[i] // 2
            entry["phase_split"] = {"start_end": mid - SPLIT_GAP, "return_begin": mid + SPLIT_GAP}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path, sum(1 for e in manifest["trials"] if "phase_split" in e)


def build(workload: str, seed: int, out_dir: str) -> Inputs:
    """Generate and write one workload's inputs into a fresh out_dir."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WHY)}")
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    items = _long_items(seed) if workload == "long_recording" else _desk_items(seed)
    if workload == "lab_preprocess":
        rng = np.random.default_rng([seed, 1])
        lab_items = []
        for subject_id, activity_id, r, is_static, trial in items:
            n = trial.n_samples
            start = int(rng.integers(n // 4, 3 * n // 4 - FLIGHT_SAMPLES))
            lab_items.append((subject_id, activity_id, r, is_static, _to_lab_frame(trial, start)))
        items = lab_items
    t1 = time.perf_counter()
    manifest = write_dataset(out_dir, items, grf_factor=GRF_FACTOR)
    t2 = time.perf_counter()
    n_samples = [item[4].n_samples for item in items]
    trials, accel_rows = len(items), 0
    if workload == "lab_preprocess":
        manifest, splits = _lab_rewrite(out_dir, n_samples)
        trials += splits
        accel_rows = sum(n_samples) - splits * (2 * SPLIT_GAP - 1)

    specs = DEFAULTS.horizon_specs()
    evaluations = len(DEFAULTS.profiles) * sum(
        max(n - spec.n_samples + 1, 0) for n in n_samples for spec in specs
    )
    return Inputs(
        manifest=manifest,
        trials=trials,
        samples=sum(n_samples),
        grf_samples=GRF_FACTOR * sum(n_samples),
        horizon_evaluations=0 if workload == "lab_preprocess" else evaluations,
        subjects=len({item[0] for item in items}),
        accel_rows=accel_rows,
        generate_s=t1 - t0,
        write_dataset_s=t2 - t1,
    )
