"""The traced benchmark run wraps compredict functions by name where their
callers bind them (`perfbench/spans.py`); a renamed or removed name must
fail here rather than break the traced run, and so must a changed
signature that the wrappers' span callbacks read."""

import json
import os
import subprocess
import sys

from compredict.io import load_manifest, read_grf_csv, write_dataset
from compredict.synth import protocol_items

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    )
    return env


def test_benchmark_span_hooks_install():
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        capture_output=True,
        text=True,
        env=perfbench_env(),
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr


def test_traced_preprocess_sees_every_grf_sample(tmp_path):
    # without contact_intervals in the manifest, loading also runs detect_contact
    manifest = write_dataset(str(tmp_path / "data"), protocol_items(1, 2, 1))
    with open(manifest) as fh:
        raw = json.load(fh)
    for trial in raw["trials"]:
        del trial["contact_intervals"]
    with open(manifest, "w") as fh:
        json.dump(raw, fh)
    grf_rows = sum(len(read_grf_csv(entry.grf_file)[1]) for entry in load_manifest(manifest))

    # the commands load on forked processes, whose spans stay there, so this
    # process calls the name that `pipeline._load_entry` looks up itself
    script = (
        "import json, sys\n"
        "import spans\n"
        "from compredict import pipeline\n"
        "from compredict.io import DEFAULTS, load_manifest\n"
        "recorder = spans.Recorder()\n"
        "spans.install(recorder)\n"
        "for entry in load_manifest(sys.argv[1]):\n"
        "    pipeline.load_trial(entry, DEFAULTS)\n"
        "json.dump(recorder.spans, sys.stdout)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, manifest],
        capture_output=True,
        text=True,
        env=perfbench_env(),
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    spans = json.loads(result.stdout)
    assert sum(s["name"] == "io.load_trial" for s in spans) == 2
    preprocessed = [s for s in spans if s["name"] == "signal.preprocess"]
    assert len(preprocessed) == 2
    assert sum(s["samples"] for s in preprocessed) == grf_rows
    assert sum(s["name"] == "signal.detect_contact" for s in spans) == 2
