"""Data ingestion and serialization.

File formats (flat CSV, one header line):

  CoM file   time_s,px,py,pz,vx,vy,vz   meters and meters/second, marker rate
             (velocity columns may be omitted; a central-difference fallback
             is then used and flagged in the run notes)
  GRF file   time_s,fx,fy,fz            newtons, force-plate rate

One reader, `read_csv_rows`, takes every CSV input: it checks the header,
skips blank rows, hands each row to the caller's parser and names the
physical `path:line` of a row of the wrong width or one the parser rejects.
A recording is parsed in bulk first and re-read through it if that fails.

A JSON manifest lists the trials: subject/activity/repeat identity, static
flag, body mass, the two file paths (relative to the manifest), contact
intervals at the force-plate rate, an axis mapping onto the X/Y-up/Z
convention, and optional phase-split markers that cut one recording into
start and return sub-trials. `load_trial` builds every trial in one place,
one per slice: the recording cut to its aligned length, or the two halves.

The run configuration is a flat "key = value" text file; see DEFAULTS for
the keys and `RunConfig` for their meaning.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import STANDARD_GRAVITY, VERTICAL_AXIS, grf_to_acceleration
from .prediction import Trial
from .profiles import HorizonSpec, ProfileKind
from .signal import check_contact_intervals, detect_contact, preprocess


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
    """Unknown or invalid configuration key/value; `key` names the setting at fault, if one does."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    """Effective settings for a pipeline run.

    dt is the prediction sample period (seconds); every horizon length must
    be a whole number of sample periods. Profile names are stored lower-case
    and horizons as floats, and neither list may repeat an entry. Settings
    that depend on a GRF file (a cutoff below its Nyquist frequency, a padlen
    shorter than it) are checked when that file is loaded. The statistics
    have one form, set by alpha alone: hierarchical per-subject means,
    Bonferroni within each pairwise family, and a pooled-SD Cohen's d.
    """

    dt: float = 0.005
    horizons_ms: tuple = (125.0, 250.0, 375.0, 500.0, 625.0)
    profiles: tuple = tuple(k.value for k in ProfileKind)
    filter_enabled: bool = True
    filter_order: int = 5
    filter_cutoff_hz: float = 20.0
    filter_zero_phase: bool = True
    filter_padlen: int = 0  # 0 = default 3*(2*order+1)
    contact_threshold_n: float = 20.0
    contact_hold_samples: int = 5
    alpha: float = 0.05
    gravity: float = STANDARD_GRAVITY
    velocity_fallback: bool = True
    threads: int = 1

    def __post_init__(self):
        for key, convert in (("profiles", lambda p: ProfileKind.parse(p).value), ("horizons_ms", float)):
            try:
                object.__setattr__(self, key, tuple(map(convert, getattr(self, key))))
            except ValueError as exc:
                raise ConfigError(str(exc), key) from exc
        limits = {  # key -> (whether its value is valid, what it must be)
            "dt": (0 < self.dt < np.inf, "positive and finite"),
            "horizons_ms": (0 < len(self.horizons_ms) == len(set(self.horizons_ms)), "non-empty with no repeats"),
            "profiles": (0 < len(self.profiles) == len(set(self.profiles)), "non-empty with no repeats"),
            "threads": (self.threads >= 1, ">= 1"),
            "alpha": (0.0 < self.alpha < 1.0, "in (0, 1)"),
            "filter_order": (self.filter_order >= 1, ">= 1"),
            "filter_cutoff_hz": (0 < self.filter_cutoff_hz < np.inf, "positive and finite"),
            "filter_padlen": (self.filter_padlen >= 0, ">= 0"),
            "contact_threshold_n": (0 < self.contact_threshold_n < np.inf, "positive and finite"),
            "contact_hold_samples": (self.contact_hold_samples >= 1, ">= 1"),
            "gravity": (np.isfinite(self.gravity), "finite"),
        }
        for key, (valid, rule) in limits.items():
            if not valid:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}", key)
        try:
            self.horizon_specs()
        except ValueError as exc:
            raise ConfigError(str(exc), "horizons_ms") from exc

    def horizon_specs(self) -> list[HorizonSpec]:
        return [HorizonSpec.from_duration(t, self.dt) for t in self.horizons_ms]

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
_KEYS = {f.name for f in fields(RunConfig)}


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean")


def parse_value(key: str, text: str):
    """One setting's value from its text, typed by the key's default in
    DEFAULTS: comma-separated floats or names, a boolean, an int, a float or
    a name. Config-file lines and CLI flags both go through here; an unknown
    key, an empty list item or unreadable text is a ConfigError."""
    if key not in _KEYS:
        raise ConfigError(f"unknown configuration key {key!r}", key)
    default = getattr(DEFAULTS, key)
    try:
        if isinstance(default, tuple):
            items = [item.strip() for item in text.split(",")]
            if "" in items:
                raise ValueError("empty list item")
            return tuple(map(type(default[0]), items))
        return (_parse_bool if isinstance(default, bool) else type(default))(text.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key}: {text!r} ({exc})", key) from None


def parse_config(text: str, flags=(), path: str = "") -> RunConfig:
    """One RunConfig from "key = value" lines ('#' starts a comment) and then
    the (flag, key, value text) settings of flags, checked together; a later
    setting of a key overrides an earlier one. An error about one key names
    the line or the flag that last set it, and a line names `path` if given."""
    prefix = f"{path}: " if path else ""
    updates, places = {}, {}  # key -> its value, and the line or flag that last set it
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            places[key] = f"{prefix}line {lineno}"
            updates[key] = parse_value(key, raw)
        for flag, key, raw in flags:
            places[key] = flag
            updates[key] = parse_value(key, raw)
        return RunConfig(**updates)
    except ConfigError as exc:
        raise ConfigError(f"{places[exc.key]}: {exc}" if exc.key in places else f"{prefix}{exc}") from None


def load_config(path: str | None, flags=()) -> RunConfig:
    """`parse_config` of the file at path (of no lines when path is None) and
    the flags; an empty path is a path, and one that cannot be read."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, flags, path)


# ---------------------------------------------------------------------------
# manifest

_AXES = {"x": 0, "y": 1, "z": 2}


def _parse_axis_map(spec) -> tuple[tuple[int, float], ...]:
    """Validate a signed permutation like ["x", "z", "-y"]; a ValueError
    says what is wrong with it.

    Entry i names the source axis (and sign) that becomes output axis i of
    the X / Y-up / Z convention.
    """
    if not isinstance(spec, list):
        raise ValueError(f"axis_map must be a list of 3 axis names, got {spec!r}")
    if len(spec) != 3:
        raise ValueError(f"axis_map must have 3 entries, got {spec!r}")
    mapping = []
    used = set()
    for entry in spec:
        text = str(entry).strip().lower()
        sign = 1.0
        if text.startswith(("-", "+")):
            sign = -1.0 if text[0] == "-" else 1.0
            text = text[1:]
        if text not in _AXES:
            raise ValueError(f"axis_map entry {entry!r} is not one of x, y, z")
        if text in used:
            raise ValueError(f"axis_map uses source axis {text!r} twice")
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
    axis_map: tuple = ((0, 1.0), (1, 1.0), (2, 1.0))  # (source axis, sign) of each output axis
    phase_split: tuple | None = None  # (start_end, return_begin), CoM-rate indices

    def trial_activities(self) -> tuple[str, ...]:
        """Activity ids of the trials this entry yields: its own, or the
        '_start' and '_return' halves of a phase split."""
        if self.phase_split is None:
            return (self.activity_id,)
        return (f"{self.activity_id}_start", f"{self.activity_id}_return")


def _manifest_number(value, kind):
    """A manifest value as kind (int or float); a non-number, or a fraction as an int, is a ValueError."""
    if type(value) not in (int, float) or (kind is int and not float(value).is_integer()):
        raise ValueError(f"{value!r} is not a JSON {kind.__name__}")
    return kind(value)


def load_manifest(path: str) -> list[ManifestEntry]:
    """Read a manifest JSON and resolve its file paths."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("trials"), list):
        raise ManifestError(f"manifest {path} must be an object with a 'trials' list")
    base_dir = os.path.dirname(os.path.abspath(path))
    entries = []
    seen = {}  # (subject, activity, repeat) of each trial -> its manifest position

    def bad(i, message):
        return ManifestError(f"{path}: manifest trial {i}: {message}")

    for i, item in enumerate(raw["trials"]):
        if not isinstance(item, dict):
            raise bad(i, f"must be an object, got {item!r}")
        try:
            mass = _manifest_number(item["mass_kg"], float)
        except KeyError:
            raise bad(i, "mass required") from None
        except (TypeError, ValueError, OverflowError):
            raise bad(i, f"mass_kg must be a number, got {item['mass_kg']!r}") from None
        if not np.isfinite(mass) or mass <= 0:
            raise bad(i, f"mass must be positive and finite, got {mass}")
        missing = [k for k in ("subject_id", "activity_id", "repeat_index", "com_file", "grf_file") if k not in item]
        if missing:
            raise bad(i, f"missing keys {missing}")
        try:
            repeat_index = _manifest_number(item["repeat_index"], int)
        except (TypeError, ValueError, OverflowError):
            raise bad(i, f"repeat_index must be an integer, got {item['repeat_index']!r}") from None
        for key in ("subject_id", "activity_id"):
            if type(item[key]) not in (str, int, float):  # not null, a boolean, a list or an object
                raise bad(i, f"{key} must be a string or a number, got {item[key]!r}")
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
                intervals = tuple((_manifest_number(a, int), _manifest_number(b, int)) for a, b in intervals)
            except (TypeError, ValueError, OverflowError):
                raise bad(i, f"contact_intervals must be [start, end] integer pairs, got {intervals!r}") from None
        split = item.get("phase_split")
        if split is not None:
            try:
                split = (_manifest_number(split["start_end"], int), _manifest_number(split["return_begin"], int))
            except (KeyError, TypeError, ValueError, OverflowError):
                raise bad(i, "phase_split needs integer start_end and return_begin") from None
        is_static = item.get("is_static", False)
        if not isinstance(is_static, bool):
            raise bad(i, f"is_static must be true or false, got {is_static!r}")
        try:
            axis_map = _parse_axis_map(item.get("axis_map", ["x", "y", "z"]))
        except ValueError as exc:
            raise bad(i, str(exc)) from None
        entry = ManifestEntry(
            subject_id=str(item["subject_id"]),
            activity_id=str(item["activity_id"]),
            repeat_index=repeat_index,
            is_static=is_static,
            mass=mass,
            com_file=com_file,
            grf_file=grf_file,
            contact_intervals=intervals,
            axis_map=axis_map,
            phase_split=split,
        )
        for activity_id in entry.trial_activities():
            key = (entry.subject_id, activity_id, repeat_index)
            if key in seen:
                raise bad(i, f"trial key {'/'.join(map(str, key))} repeats manifest trial {seen[key]}")
            seen[key] = i
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# CSV helpers

COM_HEADER = ["time_s", "px", "py", "pz", "vx", "vy", "vz"]
COM_HEADER_NO_VEL = ["time_s", "px", "py", "pz"]
GRF_HEADER = ["time_s", "fx", "fy", "fz"]


_BLANK_LINES = ("\n", "\r\n", "\r")  # lines that both csv and np.loadtxt skip


@contextmanager
def _open_csv(path: str, allowed_headers):
    """(file, csv reader, header) of a CSV file whose stripped first row is one
    of allowed_headers; a file that cannot be read as CSV is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            if header not in allowed_headers:
                raise SchemaError(
                    f"{path}: header {','.join(header)} does not match any of: "
                    + " | ".join(",".join(h) for h in allowed_headers)
                )
            yield fh, reader, header
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # csv.Error: an overlong field, or a NUL before 3.11
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def read_csv_rows(path: str, allowed_headers, parse):
    """(header, lines, values): parse(cells) of each non-blank row and the
    line it ends on. A row of the wrong width, or one whose parse raises a
    ValueError, is a SchemaError naming that `path:line`."""
    lines, values = [], []
    with _open_csv(path, allowed_headers) as (_, reader, header):
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(header):
                raise SchemaError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(cells)}")
            try:
                values.append(parse(cells))
            except ValueError as exc:
                raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
            lines.append(reader.line_num)
    return header, lines, values


def _parse_body(lines, n_columns: int) -> np.ndarray | None:
    """The remaining lines as one (rows, n_columns) array, parsed in bulk by
    `np.loadtxt`; None unless they are at least 2 rows of finite numbers.

    comments=None keeps '#' an error, as it is for float(). A body of blank
    lines alone returns None before loadtxt can warn that it holds no data.
    """
    try:
        lines = itertools.dropwhile(_BLANK_LINES.__contains__, lines)
        first = next(lines, None)
        if first is None:
            return None
        data = np.loadtxt(
            itertools.chain((first,), lines), delimiter=",", comments=None, ndmin=2, dtype=float
        )
    except ValueError:
        return None
    if data.shape[1] != n_columns or len(data) < 2 or not np.isfinite(data).all():
        return None
    return data


def _read_csv(path: str, allowed_headers) -> tuple[list[str], np.ndarray]:
    """Header and data of a flat numeric CSV file.

    Valid files are parsed in bulk. Anything the bulk parser declines is
    re-read by `_read_csv_by_line`, which defines the result: its array, or
    its SchemaError naming `path:line`.
    """
    with _open_csv(path, allowed_headers) as (fh, _, header):
        data = _parse_body(fh, len(header))
    if data is None:
        return _read_csv_by_line(path, allowed_headers)
    return header, data


def _read_csv_by_line(path: str, allowed_headers) -> tuple[list[str], np.ndarray]:
    """`_read_csv` one row at a time through csv and float(): the reference
    for every file, and the reader that names the line of a bad row."""
    header, lines, rows = read_csv_rows(path, allowed_headers, lambda cells: [float(x) for x in cells])
    if len(rows) < 2:
        raise SchemaError(f"{path}: need at least 2 samples, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    finite = np.isfinite(data)
    if not finite.all():
        bad = int(np.argmin(finite.all(axis=1)))
        raise SchemaError(f"{path}:{lines[bad]}: non-finite value in {rows[bad]!r}")
    return header, data


def _check_timestamps(path: str, header, times: np.ndarray) -> float:
    """Validate monotone uniform timestamps; returns the sample period. A
    timestamp that does not increase names its `path:line`, which only the
    by-line reader knows. The one series-length buffer is the differences,
    whose median is taken by partitioning them in place."""
    diffs = np.diff(times)
    low, high = diffs.min(), diffs.max()
    if low <= 0:
        line = read_csv_rows(path, [header], len)[1][int(np.argmax(diffs <= 0)) + 1]
        raise TimestampError(f"{path}:{line}: timestamps not strictly increasing")
    # np.median: the middle value, or the mean of the two middle values
    middle = len(diffs) // 2
    diffs.partition((middle - 1, middle) if len(diffs) % 2 == 0 else middle)
    dt = float(diffs[middle] if len(diffs) % 2 else (diffs[middle - 1] + diffs[middle]) / 2)
    # every |diff - dt| is within the tolerance when the extremes' are
    tolerance = 1e-6 * max(dt, 1e-12) + 1e-9
    if high - dt > tolerance or dt - low > tolerance:
        raise TimestampError(f"{path}: timestamps are not uniformly spaced")
    return dt


def read_com_csv(path: str):
    """Returns (dt, positions, velocities-or-None)."""
    header, data = _read_csv(path, [COM_HEADER, COM_HEADER_NO_VEL])
    dt = _check_timestamps(path, header, data[:, 0])
    positions = data[:, 1:4]
    velocities = data[:, 4:7] if len(header) == 7 else None
    return dt, positions, velocities


def read_grf_csv(path: str):
    """Returns (sample_rate, forces)."""
    header, data = _read_csv(path, [GRF_HEADER])
    dt = _check_timestamps(path, header, data[:, 0])
    return 1.0 / dt, data[:, 1:4]


def _format_cell(value) -> str:
    """One CSV cell: None is empty, bools are true/false, floats (numpy
    scalars included) are their repr, the shortest string that round-trips
    exactly, and text holding a comma, a quote, CR or LF is quoted as
    `csv.QUOTE_MINIMAL` quotes it, with inner quotes doubled."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_row(cells) -> str:
    """One CSV line of mixed cells, each formatted by `_format_cell`."""
    return ",".join(map(_format_cell, cells))


def float_lines(array) -> list[str]:
    """The CSV lines of a 2-D float array, one per row: each cell is its repr,
    as `_format_cell` writes it, formatted in bulk with no Python call per cell."""
    array = np.asarray(array, dtype=float)
    template = ",".join(["%s"] * array.shape[1])
    cells = map(float.__repr__, array.ravel().tolist())
    return list(map(template.__mod__, zip(*[cells] * array.shape[1])))


def write_table(path: str, header, lines) -> None:
    """Write a header line, then each already formatted line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line + "\n" for line in lines)


def timed_lines(period: float, *blocks) -> list[str]:
    """Lines of a sampled table: time i * period, then each (n, k) block's row i."""
    return float_lines(np.column_stack([np.arange(len(blocks[0])) * period, *blocks]))


# ---------------------------------------------------------------------------
# trial loading


def load_trial(entry: ManifestEntry, config: RunConfig = DEFAULTS):
    """Build Trial objects from one manifest entry.

    Runs the GRF chain (clamp to contact intervals, lowpass, downsample to
    the CoM rate), converts forces to accelerations, maps axes into the
    X/Y-up/Z convention, and aligns stream lengths (a +/-1 sample difference
    is truncated, anything more is an error). A phase-split entry yields two
    trials with '_start' and '_return' suffixes. Returns (trials, notes).
    """
    notes: list[str] = []
    label = f"{entry.subject_id}/{entry.activity_id}/{entry.repeat_index}"
    com_dt, positions, velocities = read_com_csv(entry.com_file)
    if abs(com_dt - config.dt) > 1e-9 * max(config.dt, com_dt):
        raise SchemaError(
            f"{entry.com_file}: sample period {com_dt:g} s does not match configured dt {config.dt:g} s"
        )
    if velocities is None:
        if not config.velocity_fallback:
            raise SchemaError(f"{entry.com_file}: velocity columns required")
        # central differences inside, one-sided at the edges
        velocities = np.gradient(positions, config.dt, axis=0)
        notes.append(f"{label}: velocities estimated by central differences")

    grf_rate, forces = read_grf_csv(entry.grf_file)
    factor = grf_rate * config.dt
    if abs(factor - round(factor)) > 1e-6 or round(factor) < 1:
        raise SchemaError(
            f"{entry.grf_file}: rate {grf_rate:g} Hz is not an integer multiple of the CoM rate"
        )
    factor = int(round(factor))

    positions = _apply_axis_map(entry.axis_map, positions)
    velocities = _apply_axis_map(entry.axis_map, velocities)
    forces = _apply_axis_map(entry.axis_map, forces)

    intervals = entry.contact_intervals
    if intervals is None:
        intervals = detect_contact(forces, config.contact_threshold_n, config.contact_hold_samples)
        notes.append(f"{label}: contact intervals auto-detected ({len(intervals)} found)")
    try:
        check_contact_intervals(intervals, len(forces))
    except ValueError as exc:
        raise ManifestError(f"{entry.grf_file}: bad contact intervals: {exc}") from exc

    try:
        forces = preprocess(
            forces,
            grf_rate,
            intervals,
            downsample_factor=factor,
            order=config.filter_order,
            cutoff_hz=config.filter_cutoff_hz,
            zero_phase=config.filter_zero_phase,
            padlen=config.filter_padlen or None,
            apply_filter=config.filter_enabled,
        )
    except ValueError as exc:  # a cutoff at or above this file's Nyquist, or padlen beyond its length
        raise SchemaError(f"{entry.grf_file}: cannot filter: {exc}") from exc
    accel = grf_to_acceleration(forces, entry.mass, g=config.gravity)

    n_com, n_acc = len(positions), len(accel)
    if abs(n_com - n_acc) > 1:
        raise LengthMismatchError(
            f"{entry.com_file}: {n_com} CoM samples vs {n_acc} downsampled GRF samples "
            "(more than one sample apart)"
        )
    n = min(n_com, n_acc)
    # one slice per trial of entry.trial_activities(): the aligned recording, or its two halves
    slices = [slice(0, n)]
    if entry.phase_split is not None:
        start_end, return_begin = entry.phase_split
        if not (1 <= start_end < return_begin <= n - 2):
            raise ManifestError(
                f"{entry.com_file}: phase_split ({start_end}, {return_begin}) out of bounds for {n} samples"
            )
        slices = [slice(0, start_end + 1), slice(return_begin, n)]
    trials = [
        Trial(
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
        for activity_id, sl in zip(entry.trial_activities(), slices)
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
    time_cells = {}  # sample period -> "repr(i * period)," for i below the longest file's length so far

    def timed(period, lines):
        """Each line behind its time cell: time i is the same float in every
        file at this period, so each distinct cell is formatted only once."""
        cells = time_cells.setdefault(period, [])
        if len(cells) < len(lines):  # i * period does not depend on where arange starts
            cells += map("%r,".__mod__, (np.arange(len(cells), len(lines)) * period).tolist())
        return map(str.__add__, cells, lines)

    for subject_id, activity_id, repeat_index, is_static, trial in items:
        subject_dir = os.path.join(out_dir, subject_id)
        os.makedirs(subject_dir, exist_ok=True)
        stem = f"{activity_id}_{repeat_index}"
        com_rel = os.path.join(subject_id, f"{stem}_com.csv")
        grf_rel = os.path.join(subject_id, f"{stem}_grf.csv")
        com_lines = float_lines(np.column_stack([trial.positions, trial.velocities]))
        write_table(os.path.join(out_dir, com_rel), COM_HEADER, timed(trial.dt, com_lines))

        forces = trial.mass * trial.accel_inputs.copy()
        forces[:, VERTICAL_AXIS] += trial.mass * gravity
        # hold each force over a window centered on its sample instant, so the
        # kept index 5i recovers sample i exactly and lowpass smoothing sees a
        # phase-aligned staircase; each distinct force row is formatted once
        n_fast = grf_factor * len(forces)
        src = np.clip((np.arange(n_fast) + grf_factor // 2) // grf_factor, 0, len(forces) - 1)
        held = list(map(float_lines(forces).__getitem__, src.tolist()))
        # the period is the reciprocal of the written rate, which is not always
        # dt / grf_factor to the last bit
        period = 1.0 / (grf_factor / trial.dt)
        write_table(os.path.join(out_dir, grf_rel), GRF_HEADER, timed(period, held))

        manifest["trials"].append(
            {
                "subject_id": subject_id,
                "activity_id": activity_id,
                "repeat_index": repeat_index,
                "is_static": is_static,
                "mass_kg": trial.mass,
                "com_file": com_rel,
                "grf_file": grf_rel,
                "contact_intervals": [[0, n_fast - 1]],
                "axis_map": ["x", "y", "z"],
            }
        )
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path
