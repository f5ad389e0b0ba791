"""The traced benchmark run wraps compredict functions by name where their
callers bind them (`perfbench/spans.py`); a renamed or removed name must
fail here rather than break the traced run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_span_hooks_install():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    )
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
