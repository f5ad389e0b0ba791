"""Metamorphic relations of the whole `run` command.

A synthetic session is run as written and again after a transformation of
its inputs that the paper's model must not see: mirroring a horizontal axis
(errors are Euclidean distances and direction scores compare signs, so a
sign flip of X or Z changes neither), or doubling the body mass together
with every force (the accelerations F/m are unchanged; a power of two scales
every intermediate value exactly). Each relation must give the same bytes in
every output file, at one worker and at two. Mirroring the vertical axis is
not such a transformation, since gravity is subtracted along it, and must
change the metrics.
"""

import filecmp
import json
import os

import pytest

from compredict.cli import main
from compredict.io import GRF_HEADER

OUTPUTS = ["metrics.csv", "tests.csv", "fits.csv", "levels.csv", "skips.csv", "bundle.json"]


def _mirror(axis_map):
    def transform(data, trials):
        for item in trials:
            item["axis_map"] = axis_map

    return transform


def _double_mass_and_forces(data, trials):
    for item in trials:
        item["mass_kg"] = 2 * item["mass_kg"]
        stem, ext = os.path.splitext(item["grf_file"])
        with open(os.path.join(data, item["grf_file"]), encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        assert header == ",".join(GRF_HEADER)
        with open(os.path.join(data, stem + "_doubled" + ext), "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                time, *forces = row.split(",")
                fh.write(",".join([time] + [repr(2 * float(f)) for f in forces]) + "\n")
        item["grf_file"] = stem + "_doubled" + ext


TRANSFORMS = {
    "x_mirror": _mirror(["-x", "y", "z"]),
    "z_mirror": _mirror(["x", "y", "-z"]),
    "mass_and_forces_doubled": _double_mass_and_forces,
    "y_mirror": _mirror(["x", "-y", "z"]),
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Runs the synthetic session, as written ("base") or under one of
    TRANSFORMS, at a thread count, once, and returns the output directory."""
    root = tmp_path_factory.mktemp("metamorphic")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--subjects", "3", "--activities", "4", "--repeats", "1"]) == 0
    outputs = {}

    def run(name, threads):
        if (name, threads) not in outputs:
            manifest = data / f"{name}.json"
            if name == "base":
                manifest = data / "manifest.json"
            elif not manifest.exists():
                with open(data / "manifest.json", encoding="utf-8") as fh:
                    transformed = json.load(fh)
                TRANSFORMS[name](str(data), transformed["trials"])
                with open(manifest, "w", encoding="utf-8") as fh:
                    json.dump(transformed, fh)
            out = root / f"{name}_{threads}"
            assert main(["run", "--manifest", str(manifest), "--out", str(out), "--threads", str(threads)]) == 0
            outputs[name, threads] = out
        return outputs[name, threads]

    return run


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("relation", ["x_mirror", "z_mirror", "mass_and_forces_doubled"])
def test_invariant_transformation_gives_identical_outputs(run, relation, threads):
    match, mismatch, errors = filecmp.cmpfiles(run("base", 1), run(relation, threads), OUTPUTS, shallow=False)
    assert (mismatch, errors) == ([], []) and match == OUTPUTS


@pytest.mark.parametrize("threads", [1, 2])
def test_vertical_mirror_changes_the_metrics(run, threads):
    assert not filecmp.cmp(run("base", 1) / "metrics.csv", run("y_mirror", threads) / "metrics.csv", shallow=False)
