"""Run one command and print its wall time and resource use as a JSON line.

usage: python -S perfbench/launch.py <log file> <program> <arguments...>

The command's stdout and stderr go to the log file. The printed object has
"start" and "end" (perf_counter readings around spawn and reaped exit),
"exit", "maxrss_kib" and "cpu_s", the last two from os.wait4.

Timed runs are started from this small process rather than from the
benchmark itself: on Linux a child's ru_maxrss starts from the peak RSS of
the process that spawned it, so a child of the benchmark, which holds the
generated inputs, would report at least the benchmark's own size.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    log, argv = sys.argv[1], sys.argv[2:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    # terminated by the benchmark, stop and reap the command before exiting
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    end = time.perf_counter()
    print(json.dumps({
        "start": start,
        "end": end,
        "exit": os.waitstatus_to_exitcode(status),
        "maxrss_kib": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
