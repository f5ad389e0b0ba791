"""Property test of the CLI's exit-code contract on generated overrides and
manifests: every run exits 0, 1 or 2 without a traceback, and a malformed
command-line override always exits 1 like a malformed config file."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compredict.cli import main
from compredict.io import DEFAULTS, write_dataset
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
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        argv = ["run", "--manifest", manifest_path, "--out", out, "--format", "json"]
        argv += [f"{flag}={text}" for flag, text in overrides.items()]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if any(OVERRIDES[flag][1](text) for flag, text in overrides.items()):
        assert code == 1, (argv, err.getvalue())
