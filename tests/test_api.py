"""The public names and the README's library example stay in step with the code."""

import contextlib
import io
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

import compredict
from compredict import prediction
from compredict.io import DEFAULTS, RunConfig, parse_config
from compredict.prediction import sweep_errors
from compredict.profiles import ProfileKind

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    for name in compredict.__all__:
        assert getattr(compredict, name) is not None, name
    # the package exports the session sweep the README documents; the
    # one-trial reference `sweep_errors` stays in `prediction`
    assert compredict.sweep_session is prediction.sweep_session
    assert "sweep_errors" not in compredict.__all__


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Library use") :]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    rng = np.random.default_rng(5)
    inputs = {
        "positions": rng.normal(size=(60, 3)),
        "velocities": rng.normal(size=(60, 3)),
        "accels": rng.normal(size=(60, 3)),
    }
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(snippet, str(README), "exec"), inputs)
    # one line per start of a 51-sample horizon in a 60-sample trial
    assert len(printed.getvalue().splitlines()) == 10
    # each the row mean and max of the one-trial sweep's (10, 51) errors, and its score
    errors, scores = sweep_errors(inputs["trial"], inputs["spec"], ProfileKind.CUBIC)
    assert errors.shape == (10, 51)
    expected = [f"{start} {e.mean()} {e.max()} {score}" for start, (e, score) in enumerate(zip(errors, scores))]
    assert printed.getvalue().splitlines() == expected


def test_readme_configuration_block_lists_every_setting_once_at_its_default():
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## Configuration") :].split("```")[1]
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if line.split("#", 1)[0].strip()]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
    assert parse_config(block) == DEFAULTS
