"""Run the compredict CLI in this process with span wrappers installed.

usage: PYTHONPATH=src python perfbench/traced_cli.py <spans.json> <cli arguments...>

Writes {"imported": t, "exit": code, "spans": [...]} to spans.json when the
command ends, where t is the perf_counter reading right after the program's
modules were imported, and exits with the command's exit code.
"""

import json
import sys
import time

import spans
from compredict import cli

imported = time.perf_counter()


def main() -> int:
    recorder = spans.Recorder()
    spans.install(recorder)
    code = 2
    try:
        code = cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"imported": imported, "exit": code, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
