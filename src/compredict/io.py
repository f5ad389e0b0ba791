"""Data ingestion and serialization.

File formats (flat CSV, one header line):

  CoM file   time_s,px,py,pz,vx,vy,vz   meters and meters/second, marker rate
             (velocity columns may be omitted; a central-difference fallback
             is then used and flagged in the run notes)
  GRF file   time_s,fx,fy,fz            newtons, force-plate rate

A JSON manifest lists the trials: subject/activity/repeat identity, static
flag, body mass, the two file paths (relative to the manifest), contact
intervals at the force-plate rate, an axis mapping onto the X/Y-up/Z
convention, and optional phase-split markers that cut one recording into
start and return sub-trials.

The run configuration is a flat "key = value" text file; see DEFAULTS for
the keys and `RunConfig` for their meaning.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import STANDARD_GRAVITY, grf_to_acceleration
from .prediction import Trial
from .profiles import HorizonSpec, ProfileKind
from .signal import FilterSpec, ForceSeries, detect_contact, preprocess


class InputError(Exception):
    """Bad user input (manifest, config, or data files); CLI exit code 1."""


class SchemaError(InputError):
    """A data file does not match its documented schema."""


class TimestampError(InputError):
    """Timestamps are non-monotone or not uniformly spaced."""


class LengthMismatchError(InputError):
    """CoM and GRF streams disagree in length beyond the +/-1 tolerance."""


class ManifestError(InputError):
    """Manifest is missing or malformed."""


class ConfigError(InputError):
    """Unknown or invalid configuration key/value."""


# ---------------------------------------------------------------------------
# run configuration

PROFILE_NAMES = tuple(k.value for k in ProfileKind)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for a pipeline run.

    dt is the prediction sample period (seconds); every horizon length must
    be a whole number of sample periods. bonferroni_m of 0 means "use the
    size of each pairwise family".
    """

    dt: float = 0.005
    horizons_ms: tuple = (125.0, 250.0, 375.0, 500.0, 625.0)
    profiles: tuple = PROFILE_NAMES
    stride: int = 1
    filter_enabled: bool = True
    filter_order: int = 5
    filter_cutoff_hz: float = 20.0
    filter_zero_phase: bool = True
    filter_padlen: int = 0  # 0 = default 3*(2*order+1)
    contact_threshold_n: float = 20.0
    contact_hold_samples: int = 5
    aggregation: str = "hierarchical"
    alpha: float = 0.05
    bonferroni_m: int = 0
    cohens_d_variant: str = "pooled"
    gravity: float = STANDARD_GRAVITY
    velocity_fallback: bool = True
    threads: int = 1
    out_format: str = "csv"

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        try:
            for t_ms in self.horizons_ms:
                HorizonSpec.from_duration(t_ms, self.dt)
            for name in self.profiles:
                ProfileKind.parse(name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.horizons_ms or not self.profiles:
            raise ConfigError("horizons_ms and profiles must each list at least one value")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.aggregation not in ("hierarchical", "pooled"):
            raise ConfigError(f"aggregation must be hierarchical or pooled, got {self.aggregation!r}")
        if self.cohens_d_variant not in ("pooled", "unequal"):
            raise ConfigError(f"cohens_d_variant must be pooled or unequal, got {self.cohens_d_variant!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.out_format!r}")

    def horizon_specs(self) -> list[HorizonSpec]:
        return [HorizonSpec.from_duration(t, self.dt) for t in self.horizons_ms]

    def filter_spec(self) -> FilterSpec:
        return FilterSpec(order=self.filter_order, cutoff_hz=self.filter_cutoff_hz)

    def to_dict(self) -> dict:
        """Echo of every result-affecting setting.

        The thread count is deliberately omitted: outputs are byte-identical
        for any value, and keeping it out lets runs with different worker
        counts produce identical bundles.
        """
        out = {}
        for f in fields(self):
            if f.name == "threads":
                continue
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


DEFAULTS = RunConfig()

_LIST_KEYS = {"horizons_ms", "profiles"}
_BOOL_KEYS = {"filter_enabled", "filter_zero_phase", "velocity_fallback"}
_INT_KEYS = {"stride", "filter_order", "filter_padlen", "contact_hold_samples", "bonferroni_m", "threads"}
_FLOAT_KEYS = {"dt", "filter_cutoff_hz", "contact_threshold_n", "alpha", "gravity"}
_STR_KEYS = {"aggregation", "cohens_d_variant", "out_format"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean")


def parse_config(text: str, base: RunConfig = DEFAULTS) -> RunConfig:
    """Parse "key = value" lines ('#' starts a comment) over the base config."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        try:
            if key in _LIST_KEYS:
                items = [item.strip() for item in raw.split(",") if item.strip()]
                updates[key] = tuple(float(i) for i in items) if key == "horizons_ms" else tuple(items)
            elif key in _BOOL_KEYS:
                updates[key] = _parse_bool(raw)
            elif key in _INT_KEYS:
                updates[key] = int(raw)
            elif key in _FLOAT_KEYS:
                updates[key] = float(raw)
            elif key in _STR_KEYS:
                updates[key] = raw
            else:
                raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key}: {raw!r} ({exc})") from None
    try:
        return replace(base, **updates)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, base: RunConfig = DEFAULTS) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read(), base)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# manifest

_AXES = {"x": 0, "y": 1, "z": 2}


def _parse_axis_map(spec) -> tuple[tuple[int, float], ...]:
    """Validate a signed permutation like ["x", "z", "-y"].

    Entry i names the source axis (and sign) that becomes output axis i of
    the X / Y-up / Z convention.
    """
    if len(spec) != 3:
        raise ManifestError(f"axis_map must have 3 entries, got {spec!r}")
    mapping = []
    used = set()
    for entry in spec:
        text = str(entry).strip().lower()
        sign = 1.0
        if text.startswith(("-", "+")):
            sign = -1.0 if text[0] == "-" else 1.0
            text = text[1:]
        if text not in _AXES:
            raise ManifestError(f"axis_map entry {entry!r} is not one of x, y, z")
        if text in used:
            raise ManifestError(f"axis_map uses source axis {text!r} twice")
        used.add(text)
        mapping.append((_AXES[text], sign))
    return tuple(mapping)


def _apply_axis_map(mapping, array: np.ndarray) -> np.ndarray:
    out = np.empty_like(array)
    for axis, (src, sign) in enumerate(mapping):
        out[:, axis] = sign * array[:, src]
    return out


@dataclass(frozen=True)
class ManifestEntry:
    """One trial's identity, mass, file locations, and framing metadata."""

    subject_id: str
    activity_id: str
    repeat_index: int
    is_static: bool
    mass: float
    com_file: str
    grf_file: str
    contact_intervals: tuple | None = None  # GRF-rate (start, end) pairs
    axis_map: tuple = ("x", "y", "z")
    phase_split: tuple | None = None  # (start_end, return_begin), CoM-rate indices


def load_manifest(path: str) -> list[ManifestEntry]:
    """Read a manifest JSON and resolve its file paths."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("trials"), list):
        raise ManifestError(f"manifest {path} must be an object with a 'trials' list")
    base_dir = os.path.dirname(os.path.abspath(path))
    entries = []

    def bad(i, message):
        return ManifestError(f"{path}: manifest trial {i}: {message}")

    for i, item in enumerate(raw["trials"]):
        if not isinstance(item, dict):
            raise bad(i, f"must be an object, got {item!r}")
        try:
            mass = float(item["mass_kg"])
        except KeyError:
            raise bad(i, "mass required") from None
        except (TypeError, ValueError, OverflowError):
            raise bad(i, "mass_kg must be a number") from None
        if not np.isfinite(mass) or mass <= 0:
            raise bad(i, f"mass must be positive and finite, got {mass}")
        missing = [k for k in ("subject_id", "activity_id", "repeat_index", "com_file", "grf_file") if k not in item]
        if missing:
            raise bad(i, f"missing keys {missing}")
        try:
            repeat_index = int(item["repeat_index"])
        except (TypeError, ValueError, OverflowError):
            raise bad(i, f"repeat_index must be an integer, got {item['repeat_index']!r}") from None
        for key in ("com_file", "grf_file"):
            if not isinstance(item[key], str):
                raise bad(i, f"{key} must be a file path, got {item[key]!r}")
        com_file = os.path.join(base_dir, item["com_file"])
        grf_file = os.path.join(base_dir, item["grf_file"])
        for file_path in (com_file, grf_file):
            if not os.path.exists(file_path):
                raise bad(i, f"file not found: {file_path}")
        intervals = item.get("contact_intervals")
        if intervals is not None:
            try:
                intervals = tuple((int(a), int(b)) for a, b in intervals)
            except (TypeError, ValueError, OverflowError):
                raise bad(i, f"contact_intervals must be [start, end] integer pairs, got {intervals!r}") from None
        split = item.get("phase_split")
        if split is not None:
            try:
                split = (int(split["start_end"]), int(split["return_begin"]))
            except (KeyError, TypeError, ValueError, OverflowError):
                raise bad(i, "phase_split needs integer start_end and return_begin") from None
        is_static = item.get("is_static", False)
        if not isinstance(is_static, bool):
            raise bad(i, f"is_static must be true or false, got {is_static!r}")
        axis_map = item.get("axis_map", ["x", "y", "z"])
        if not isinstance(axis_map, list):
            raise bad(i, f"axis_map must be a list of 3 axis names, got {axis_map!r}")
        entries.append(
            ManifestEntry(
                subject_id=str(item["subject_id"]),
                activity_id=str(item["activity_id"]),
                repeat_index=repeat_index,
                is_static=is_static,
                mass=mass,
                com_file=com_file,
                grf_file=grf_file,
                contact_intervals=intervals,
                axis_map=tuple(axis_map),
                phase_split=split,
            )
        )
    return entries


# ---------------------------------------------------------------------------
# CSV helpers

COM_HEADER = ["time_s", "px", "py", "pz", "vx", "vy", "vz"]
COM_HEADER_NO_VEL = ["time_s", "px", "py", "pz"]
GRF_HEADER = ["time_s", "fx", "fy", "fz"]


def _read_csv(path: str, allowed_headers) -> tuple[list[str], np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if header not in allowed_headers:
                raise SchemaError(
                    f"{path}: header {','.join(header)} does not match any of: "
                    + " | ".join(",".join(h) for h in allowed_headers)
                )
            rows, linenos = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise SchemaError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                try:
                    rows.append([float(x) for x in row])
                except ValueError:
                    raise SchemaError(f"{path}:{lineno}: non-numeric value in {row!r}") from None
                linenos.append(lineno)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise SchemaError(f"{path}: need at least 2 samples, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data)
    if not finite.all():
        bad = int(np.argmin(finite.all(axis=1)))
        raise SchemaError(f"{path}:{linenos[bad]}: non-finite value in {rows[bad]!r}")
    return header, data


def _check_timestamps(path: str, times: np.ndarray) -> float:
    """Validate monotone uniform timestamps; returns the sample period."""
    diffs = np.diff(times)
    if np.any(diffs <= 0):
        bad = int(np.argmax(diffs <= 0))
        raise TimestampError(f"{path}: timestamps not strictly increasing at row {bad + 2}")
    dt = float(np.median(diffs))
    if np.any(np.abs(diffs - dt) > 1e-6 * max(dt, 1e-12) + 1e-9):
        raise TimestampError(f"{path}: timestamps are not uniformly spaced")
    return dt


def read_com_csv(path: str):
    """Returns (dt, positions, velocities-or-None)."""
    header, data = _read_csv(path, [COM_HEADER, COM_HEADER_NO_VEL])
    dt = _check_timestamps(path, data[:, 0])
    positions = data[:, 1:4]
    velocities = data[:, 4:7] if len(header) == 7 else None
    return dt, positions, velocities


def read_grf_csv(path: str):
    """Returns (sample_rate, forces)."""
    _, data = _read_csv(path, [GRF_HEADER])
    dt = _check_timestamps(path, data[:, 0])
    return 1.0 / dt, data[:, 1:4]


def _format_cell(value) -> str:
    """One CSV cell: None is empty, bools are true/false, and floats (numpy
    scalars included) are their repr, the shortest string that round-trips
    exactly."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_table(path: str, header, rows) -> None:
    """Write a header line and one comma-joined line of cells per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_format_cell, row)) + "\n" for row in rows)


def timed_rows(period: float, *blocks) -> list:
    """Rows of a sampled table: time i * period, then each (n, k) block's row i."""
    n = len(blocks[0])
    return np.column_stack([np.arange(n) * period, *blocks]).tolist()


# ---------------------------------------------------------------------------
# trial loading


def _finite_difference_velocity(positions: np.ndarray, dt: float) -> np.ndarray:
    """Central differences inside, one-sided at the edges."""
    return np.gradient(positions, dt, axis=0)


def load_trial(entry: ManifestEntry, config: RunConfig = DEFAULTS):
    """Build Trial objects from one manifest entry.

    Runs the GRF chain (clamp to contact intervals, lowpass, downsample to
    the CoM rate), converts forces to accelerations, maps axes into the
    X/Y-up/Z convention, and aligns stream lengths (a +/-1 sample difference
    is truncated, anything more is an error). A phase-split entry yields two
    trials with '_start' and '_return' suffixes. Returns (trials, notes).
    """
    notes: list[str] = []
    com_dt, positions, velocities = read_com_csv(entry.com_file)
    if abs(com_dt - config.dt) > 1e-9 * max(config.dt, com_dt):
        raise SchemaError(
            f"{entry.com_file}: sample period {com_dt:g} s does not match configured dt {config.dt:g} s"
        )
    if velocities is None:
        if not config.velocity_fallback:
            raise SchemaError(f"{entry.com_file}: velocity columns required")
        velocities = _finite_difference_velocity(positions, config.dt)
        notes.append(
            f"{entry.subject_id}/{entry.activity_id}/{entry.repeat_index}: "
            "velocities estimated by central differences"
        )

    grf_rate, forces = read_grf_csv(entry.grf_file)
    factor = grf_rate * config.dt
    if abs(factor - round(factor)) > 1e-6 or round(factor) < 1:
        raise SchemaError(
            f"{entry.grf_file}: rate {grf_rate:g} Hz is not an integer multiple of the CoM rate"
        )
    factor = int(round(factor))

    mapping = _parse_axis_map(entry.axis_map)
    positions = _apply_axis_map(mapping, positions)
    velocities = _apply_axis_map(mapping, velocities)
    forces = _apply_axis_map(mapping, forces)

    if entry.contact_intervals is not None:
        intervals = entry.contact_intervals
    else:
        intervals = tuple(
            detect_contact(
                ForceSeries(sample_rate=grf_rate, samples=forces),
                rise_threshold=config.contact_threshold_n,
                hold_samples=config.contact_hold_samples,
            )
        )
        notes.append(
            f"{entry.subject_id}/{entry.activity_id}/{entry.repeat_index}: "
            f"contact intervals auto-detected ({len(intervals)} found)"
        )
    try:
        series = ForceSeries(sample_rate=grf_rate, samples=forces, contact_intervals=intervals)
    except ValueError as exc:
        raise ManifestError(f"{entry.grf_file}: bad contact intervals: {exc}") from exc

    processed = preprocess(
        series,
        spec=config.filter_spec(),
        zero_phase=config.filter_zero_phase,
        padlen=config.filter_padlen if config.filter_padlen > 0 else None,
        downsample_factor=factor,
        apply_filter=config.filter_enabled,
    )
    accel = grf_to_acceleration(processed.samples, entry.mass, g=config.gravity)

    n_com, n_acc = len(positions), len(accel)
    if abs(n_com - n_acc) > 1:
        raise LengthMismatchError(
            f"{entry.com_file}: {n_com} CoM samples vs {n_acc} downsampled GRF samples "
            "(more than one sample apart)"
        )
    n = min(n_com, n_acc)
    positions, velocities, accel = positions[:n], velocities[:n], accel[:n]

    def build(activity_id: str, sl: slice) -> Trial:
        return Trial(
            subject_id=entry.subject_id,
            activity_id=activity_id,
            repeat_index=entry.repeat_index,
            is_static=entry.is_static,
            mass=entry.mass,
            dt=config.dt,
            positions=positions[sl],
            velocities=velocities[sl],
            accel_inputs=accel[sl],
        )

    if entry.phase_split is None:
        return [build(entry.activity_id, slice(None))], notes

    start_end, return_begin = entry.phase_split
    if not (1 <= start_end < return_begin <= n - 2):
        raise ManifestError(
            f"{entry.com_file}: phase_split ({start_end}, {return_begin}) out of bounds for {n} samples"
        )
    trials = [
        build(f"{entry.activity_id}_start", slice(0, start_end + 1)),
        build(f"{entry.activity_id}_return", slice(return_begin, n)),
    ]
    return trials, notes


# ---------------------------------------------------------------------------
# synthetic dataset export


def write_dataset(out_dir: str, items, gravity: float = STANDARD_GRAVITY, grf_factor: int = 5) -> str:
    """Write synthetic trials as CoM/GRF CSV pairs plus a manifest.

    items is a sequence of (ManifestEntry-like identity, Trial) pairs as
    produced by synth generators: each element is a tuple
    (subject_id, activity_id, repeat_index, is_static, trial). GRF files are
    written at grf_factor times the trial rate by holding each force value,
    so the ingestion chain recovers the original samples exactly when
    filtering is disabled (and near-exactly for band-limited signals).
    Returns the manifest path.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"trials": []}
    for subject_id, activity_id, repeat_index, is_static, trial in items:
        subject_dir = os.path.join(out_dir, subject_id)
        os.makedirs(subject_dir, exist_ok=True)
        stem = f"{activity_id}_{repeat_index}"
        com_rel = os.path.join(subject_id, f"{stem}_com.csv")
        grf_rel = os.path.join(subject_id, f"{stem}_grf.csv")
        write_table(
            os.path.join(out_dir, com_rel),
            COM_HEADER,
            timed_rows(trial.dt, trial.positions, trial.velocities),
        )

        forces = trial.mass * trial.accel_inputs.copy()
        forces[:, 1] += trial.mass * gravity
        # hold each force over a window centered on its sample instant, so the
        # kept index 5i recovers sample i exactly and lowpass smoothing sees a
        # phase-aligned staircase
        n_fast = grf_factor * len(forces)
        src = np.clip((np.arange(n_fast) + grf_factor // 2) // grf_factor, 0, len(forces) - 1)
        forces_fast = forces[src]
        # the period is the reciprocal of the written rate, which is not always
        # dt / grf_factor to the last bit
        period = 1.0 / (grf_factor / trial.dt)
        write_table(os.path.join(out_dir, grf_rel), GRF_HEADER, timed_rows(period, forces_fast))

        manifest["trials"].append(
            {
                "subject_id": subject_id,
                "activity_id": activity_id,
                "repeat_index": repeat_index,
                "is_static": is_static,
                "mass_kg": trial.mass,
                "com_file": com_rel,
                "grf_file": grf_rel,
                "contact_intervals": [[0, len(forces_fast) - 1]],
                "axis_map": ["x", "y", "z"],
            }
        )
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path
