"""Property tests of the CLI's exit-code contract on generated overrides,
manifests and config files: every run exits 0, 1 or 2 without a traceback,
and a malformed command-line override or config file always exits 1. A flag
and its config-file line read the same text to the same setting."""

import argparse
import contextlib
import io
import json
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compredict.cli import FLAG_KEYS, _load_effective_config, main
from compredict.io import DEFAULTS, ConfigError, parse_config, write_dataset
from compredict.profiles import HorizonSpec, ProfileKind
from compredict.synth import protocol_items


def malformed_int(text, low):
    try:
        return int(text) < low
    except ValueError:
        return True


def malformed_horizons(text):
    try:
        for token in text.split(","):
            HorizonSpec.from_duration(float(token), DEFAULTS.dt)
    except ValueError:
        return True
    return False


def malformed_profiles(text):
    names = [s.strip().lower() for s in text.split(",") if s.strip()]
    return not names or any(name not in {k.value for k in ProfileKind} for name in names)


OVERRIDES = {
    "--stride": (
        st.one_of(st.integers(-2, 40).map(str), st.text("0123456789x.-+ ", max_size=3)),
        lambda text: malformed_int(text, 1),
    ),
    # at most 4 threads, so that no example starts many
    "--threads": (
        st.one_of(st.integers(-2, 4).map(str), st.text("x.-+ _", max_size=3)),
        lambda text: malformed_int(text, 1),
    ),
    "--horizons": (
        st.one_of(
            st.lists(st.sampled_from(["125", "250.0", "5", "0", "-125", "123", "nan", "inf", "1e3", " 625 ", ""]),
                     min_size=1, max_size=3).map(",".join),
            st.text("0123456789.e-, ", max_size=6),
        ),
        malformed_horizons,
    ),
    "--profiles": (
        st.one_of(
            st.lists(st.sampled_from(["zero", " Const", "cubic ", "ORACLE", "ballistic", ""]), max_size=3).map(",".join),
            st.text(max_size=4),
        ),
        malformed_profiles,
    ),
}

MANIFEST_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-3, 300), max_size=3),
    st.lists(st.lists(st.integers(-3, 1200), max_size=3), max_size=2),
    st.dictionaries(st.sampled_from(["start_end", "return_begin"]), st.integers(-3, 300), max_size=2),
)
MANIFEST_FIELDS = ("mass_kg", "com_file", "repeat_index", "is_static", "contact_intervals", "axis_map", "phase_split")


# junk text holds no line break, so each drawn value stays on its own line
JUNK = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=6)
CONFIG_VALUES = st.one_of(
    JUNK,
    st.integers(-3, 40).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["0.005", "0.004", "125, 250", "9e99", "zero,Cubic", "ballistic", "no", "true",
                     "pooled", "unequal", "json", "nan", "inf", "0.5", "0"]),
)
# at most 4 threads and an 8th-order filter, so that no example starts many
# threads or designs a huge filter; their junk holds no digit, and no digit
# of another script, that int() could read
BOUNDED_VALUES = {
    "threads": st.one_of(st.integers(-2, 4).map(str), st.text("abx.-+ ,", max_size=4)),
    "filter_order": st.one_of(st.integers(-2, 8).map(str), st.text("abx.-+ ,", max_size=4)),
}
CONFIG_KEYS = [f.name for f in fields(DEFAULTS)] + ["colour", "Threads", "horizons"]


def default_text(key):
    """The default value of a config key as config-file text ("" for unknown keys)."""
    value = getattr(DEFAULTS, key, "")
    if isinstance(value, bool):
        return str(value).lower()
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


@st.composite
def config_texts(draw):
    """Up to 5 "key = value" lines over known and unknown keys."""
    lines = []
    for key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=5)):
        values = st.one_of(st.just(default_text(key)), BOUNDED_VALUES.get(key, CONFIG_VALUES))
        lines.append(f"{key} = {draw(values)}")
    return "\n".join(lines) + "\n"


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI call, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """A 2 subject x 2 activity x 1 repeat synthetic session: (directory, manifest)."""
    data = tmp_path_factory.mktemp("session")
    with open(write_dataset(str(data), protocol_items(2, 2, 1))) as fh:
        return str(data), json.load(fh)


@settings(max_examples=40, deadline=None)
@given(
    overrides=st.fixed_dictionaries({}, optional={flag: strategy for flag, (strategy, _) in OVERRIDES.items()}),
    mutation=st.none() | st.tuples(st.sampled_from(MANIFEST_FIELDS), MANIFEST_VALUES),
)
def test_cli_run_exit_codes_on_generated_input(session, overrides, mutation):
    data, manifest = session
    manifest = json.loads(json.dumps(manifest))
    if mutation is not None:
        key, value = mutation
        manifest["trials"][0][key] = value
    manifest_path = os.path.join(data, "mutated.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with tempfile.TemporaryDirectory() as out:
        argv = ["run", "--manifest", manifest_path, "--out", out, "--format", "json"]
        argv += [f"{flag}={text}" for flag, text in overrides.items()]
        code, err = run_cli(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if any(OVERRIDES[flag][1](text) for flag, text in overrides.items()):
        assert code == 1, (argv, err)


@settings(max_examples=40, deadline=None)
@given(text=config_texts())
def test_cli_run_exit_codes_on_generated_config_files(session, text):
    data, _ = session
    config_path = os.path.join(data, "generated.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    try:
        parse_config(text)
        malformed = False
    except ConfigError:
        malformed = True
    with tempfile.TemporaryDirectory() as out:
        argv = ["run", "--manifest", os.path.join(data, "manifest.json"), "--out", out, "--config", config_path]
        code, err = run_cli(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if malformed:
        assert code == 1, (text, err)


def read_setting(read):
    """The RunConfig that read() returns, or ConfigError if it raises one."""
    try:
        return read()
    except ConfigError:
        return ConfigError


@settings(max_examples=200, deadline=None)
@given(override=st.sampled_from(sorted(OVERRIDES)).flatmap(lambda flag: st.tuples(st.just(flag), OVERRIDES[flag][0])))
def test_flag_and_config_line_give_the_same_setting(override):
    flag, text = override
    from_flag = read_setting(lambda: _load_effective_config(argparse.Namespace(**{flag[2:]: text})))
    from_file = read_setting(lambda: parse_config(f"{FLAG_KEYS[flag]} = {text}\n"))
    assert from_flag == from_file, (flag, text)
