"""Layered benchmark for compredict: end-to-end cost of the real CLI, per-layer cost from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload desk_session --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                   # every workload, all metrics

Each timed run executes `python -m compredict.cli` (PYTHONPATH=src) in a
fresh process, started through launch.py, which times it from spawn to
exit and reads its peak RSS and CPU time from `os.wait4`. Runs repeat
while the next one is expected to end within --seconds of run time, and
at least MIN_RUNS times, and the medians are reported. --trace 1 adds one
run of the same command with span wrappers installed (see spans.py) and
reports per-layer figures instead. Every run's outputs are checked; a run
that fails counts against those attempted. The last line of standard
output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")

# workload -> (CLI subcommand, --threads)
WORKLOADS = {
    "desk_session": ("run", 2),
    "long_recording": ("run", 1),
    "lab_preprocess": ("preprocess", 1),
}
SETUPS = 3  # setup_s is the median of this many complete set-ups
MIN_RUNS = 3  # timed runs per measurement, however long one run takes; the median drops one outlier
END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


# Every per-layer metric, in report order: name -> (unit, better).
# BENCHMARK.json's per_layer list is this table (a test checks that).
PER_LAYER = {
    "prediction.sweep_calls": ("count", "lower"),
    "prediction.call_ms_p50": ("ms", "lower"),
    "prediction.call_ms_p99": ("ms", "lower"),
    "prediction.sweep_busy_s": ("s", "lower"),
    "prediction.sweep_wall_s": ("s", "lower"),
    "prediction.parallelism": ("ratio", "higher"),
    "prediction.horizons": ("count", "lower"),
    "prediction.sample_errors": ("count", "lower"),
    "prediction.ns_per_sample_error": ("ns", "lower"),
    "prediction.sweep_s.zero": ("s", "lower"),
    "prediction.sweep_s.const": ("s", "lower"),
    "prediction.sweep_s.cubic": ("s", "lower"),
    "prediction.sweep_s.oracle": ("s", "lower"),
    "prediction.skipped": ("count", "lower"),
    "prediction.useful_ratio": ("ratio", "higher"),
    "io.read_calls": ("count", "lower"),
    "io.read_rows": ("count", "lower"),
    "io.read_s": ("s", "lower"),
    "io.rows_per_s": ("1/s", "higher"),
    "io.load_trial_s": ("s", "lower"),
    "io.load_trial_self_s": ("s", "lower"),
    "io.write_s": ("s", "lower"),
    "io.write_bytes": ("B", "lower"),
    "signal.preprocess_calls": ("count", "lower"),
    "signal.grf_samples": ("count", "lower"),
    "signal.preprocess_s": ("s", "lower"),
    "signal.detect_contact_calls": ("count", "lower"),
    "signal.detect_contact_s": ("s", "lower"),
    "metrics.summarize_calls": ("count", "lower"),
    "metrics.summarize_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.load_s": ("s", "lower"),
    "pipeline.run_pipeline_s": ("s", "lower"),
    "pipeline.export_s": ("s", "lower"),
    "pipeline.export_bytes": ("B", "lower"),
    "analysis.statistics_s": ("s", "lower"),
    "analysis.stat_rows": ("count", "lower"),
    "analysis.fit_rows": ("count", "lower"),
    "self_s.io": ("s", "lower"),
    "self_s.signal": ("s", "lower"),
    "self_s.prediction": ("s", "lower"),
    "self_s.metrics": ("s", "lower"),
    "self_s.analysis": ("s", "lower"),
    "self_s.pipeline": ("s", "lower"),
    "self_s.process": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "io.write_dataset_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "process.import_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.rss_baseline_mb": ("MiB", "lower"),
    "process.rss_growth_mb": ("MiB", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class ChildRun:
    """One finished child process: wall time from spawn to reaped exit,
    and the kernel's resource accounting for it, as reported by launch.py."""

    def __init__(self, argv, log_path, env):
        launcher = [sys.executable, "-S", LAUNCH, log_path, sys.executable, *argv]
        proc = subprocess.Popen(launcher, env=env, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.terminate()  # launch.py stops the command it is waiting on
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"launch.py exited {proc.returncode} for {argv}")
        report = json.loads(out)
        self.start, self.end = report["start"], report["end"]
        self.exit = report["exit"]
        self.wall_s = self.end - self.start
        self.peak_rss_mb = report["maxrss_kib"] / 1024.0
        self.cpu_s = report["cpu_s"]
        self.log_path = log_path

    def log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()[-400:].strip()


def _median_quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


class Bench:
    """One workload's inputs, timed runs and checks."""

    def __init__(self, workload: str, seed: int):
        import checks
        import workloads

        self.checks, self.workloads = checks, workloads
        self.workload, self.seed = workload, seed
        self.command, self.threads = WORKLOADS[workload]
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.inputs = None
        self.setup_s = []
        self.runs = []  # (ChildRun, problems)
        self.traced_run = None
        self.hashes = None

    def setup(self):
        """Build the inputs afresh. setup_s counts synth and write_dataset
        only, not the removal of the previous set-up's files."""
        self.inputs = self.workloads.build(self.workload, self.seed, os.path.join(self.dir, "inputs"))
        self.setup_s.append(self.inputs.generate_s + self.inputs.write_dataset_s)

    def cli_args(self, out_dir):
        return [
            self.command, "--manifest", self.inputs.manifest, "--out", out_dir,
            "--threads", str(self.threads),
        ]

    def _check(self, run: ChildRun, out_dir: str) -> list[str]:
        if run.exit != 0:
            return [f"exit code {run.exit}: {run.log_tail()}"]
        from compredict.io import DEFAULTS

        accel = self.command == "preprocess"
        if accel:
            problems = self.checks.check_accel_dir(out_dir, self.inputs.trials, self.inputs.accel_rows)
        else:
            problems = self.checks.check_metrics_csv(
                os.path.join(out_dir, "metrics.csv"),
                self.inputs.subjects, DEFAULTS.profiles, DEFAULTS.horizons_ms,
            )
        hashes = self.checks.fingerprints(out_dir, accel)
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            problems.append("outputs differ from the first run on the same inputs")
        return problems

    def run(self, traced: bool = False) -> ChildRun:
        out_dir = os.path.join(self.dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced:
            argv = [os.path.join(ROOT, "perfbench", "traced_cli.py"), self.spans_path]
        else:
            argv = ["-m", "compredict.cli"]
        run = ChildRun(argv + self.cli_args(out_dir), os.path.join(self.dir, "cli.log"), self.env)
        self.runs.append((run, self._check(run, out_dir)))
        if traced:
            self.traced_run = run
        return run

    @property
    def spans_path(self):
        return os.path.join(self.dir, "spans.json")

    def _want_run(self, seconds: float) -> bool:
        walls = [run.wall_s for run, _ in self.runs]
        return len(walls) < MIN_RUNS or sum(walls) + statistics.median(walls) <= seconds

    def timed_runs(self, seconds: float, setups: int):
        """Set up `setups` times, each followed by a timed run, then run on
        while the next run is expected to end within `seconds` of run time.

        Interleaving spreads the runs over the whole measurement, so a
        passing slow spell of the host weighs on fewer of them.
        """
        for _ in range(setups):
            self.setup()
            if self._want_run(seconds):
                self.run()
        while self._want_run(seconds):
            self.run()
        return [run for run, _ in self.runs]

    def end_to_end(self, timed) -> dict:
        return {
            "run_s": _median_quartiles([r.wall_s for r in timed]),
            "peak_rss_mb": _median_quartiles([r.peak_rss_mb for r in timed]),
            "setup_s": _median_quartiles(self.setup_s),
        }

    def per_layer(self, timed) -> dict:
        import spans

        traced = self.run(traced=True)
        with open(self.spans_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        out = spans.layer_metrics(dump["spans"], traced.start, traced.end)
        baseline = ChildRun(["-c", "import compredict.cli"], os.path.join(self.dir, "baseline.log"), self.env)
        if baseline.exit != 0:
            self.runs.append((baseline, [f"baseline import failed: {baseline.log_tail()}"]))
        median_rss = statistics.median(r.peak_rss_mb for r in timed)
        out["io.write_dataset_s"] = self.inputs.write_dataset_s
        out["synth.generate_s"] = self.inputs.generate_s
        out["process.import_s"] = dump["imported"] - traced.start
        out["process.cpu_s"] = statistics.median(r.cpu_s for r in timed)
        out["process.rss_baseline_mb"] = baseline.peak_rss_mb
        out["process.rss_growth_mb"] = median_rss - baseline.peak_rss_mb
        out["trace.overhead_s"] = traced.wall_s - statistics.median(r.wall_s for r in timed)
        if set(out) != set(PER_LAYER):
            raise RuntimeError(f"per-layer metrics differ from PER_LAYER: {sorted(set(out) ^ set(PER_LAYER))}")
        return {name: out[name] for name in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, setups: int, traced: bool):
    """Returns (report lines, summary dict, end-to-end figures, per-layer figures or None)."""
    bench = Bench(workload, seed)
    timed = bench.timed_runs(seconds, setups)
    e2e = bench.end_to_end(timed)
    layers = bench.per_layer(timed) if traced else None
    inp = bench.inputs
    env = environment(seed)
    failed = sum(1 for _, problems in bench.runs if problems)

    lines = [
        f"workload {workload}: {bench.workloads.WHY[workload]}",
        f"input: {inp.trials} trials, {inp.samples} marker samples at 200 Hz, {inp.grf_samples} GRF "
        f"samples at 1 kHz, {inp.horizon_evaluations} horizon evaluations "
        f"(`{bench.command} --threads {bench.threads}`, default config)",
        "env: " + ", ".join(f"{k} {v}" for k, v in env.items()),
    ]
    for i, (run, problems) in enumerate(bench.runs):
        status = "ok" if not problems else "FAILED: " + "; ".join(problems[:3])
        kind = "traced run" if run is bench.traced_run else "run"
        lines.append(
            f"{kind} {i}: {run.wall_s:.3f} s, {run.peak_rss_mb:.1f} MiB, cpu {run.cpu_s:.2f} s, "
            f"exit {run.exit}, {status}"
        )
    counts = {"run_s": len(timed), "peak_rss_mb": len(timed), "setup_s": len(bench.setup_s)}
    for name, (med, q1, q3) in e2e.items():
        lines.append(
            f"{name} = {med:.4f} {END_TO_END_UNITS[name]} "
            f"(median of {counts[name]}, quartiles {q1:.4f} .. {q3:.4f})"
        )
    if layers is not None:
        for name, value in layers.items():
            lines.append(f"{name} = {value:.6g} {PER_LAYER[name][0]}")
    for name, digest in (bench.hashes or {}).items():
        lines.append(f"sha256 {name} {digest}")

    summary = {
        "workload": workload,
        "why": bench.workloads.WHY[workload],
        "inputs": {k: v for k, v in vars(inp).items() if k != "manifest"},
        "environment": env,
        "runs": [
            {"wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb, "cpu_s": r.cpu_s, "exit": r.exit, "problems": p}
            for r, p in bench.runs
        ],
        "setup_s": bench.setup_s,
        "sha256": bench.hashes,
        "end_to_end": {k: {"median": v[0], "q1": v[1], "q3": v[2], "samples": counts[k]} for k, v in e2e.items()},
        "per_layer": layers,
        "attempted": len(bench.runs),
        "failed": failed,
    }
    with open(os.path.join(bench.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return lines, summary, e2e, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, end-to-end and per-layer")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops and reaps the processes it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload or --all")
    if not os.path.isfile(os.path.join(SRC, "compredict", "cli.py")):
        print(f"error: {SRC}/compredict not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.all:
        combined = {}
        ok = True
        for workload in WORKLOADS:
            lines, summary, _, _ = measure(workload, args.seed, args.seconds, SETUPS, True)
            print("\n".join(lines) + "\n", flush=True)
            combined[workload] = summary["end_to_end"]
            ok = ok and summary["failed"] == 0
        print(json.dumps(combined))
        return 0 if ok else 1

    traced = bool(args.trace)
    lines, summary, e2e, layers = measure(
        args.workload, args.seed, args.seconds, 1 if traced else SETUPS, traced
    )
    print("\n".join(lines), flush=True)
    if traced:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v[0], "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    correct = summary["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
