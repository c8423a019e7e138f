"""Run one command to exit; write its exit code, wall time and rusage as JSON.

    python3 perfbench/spawn.py RESULT.json TIMEOUT_S -- CMD...

The benchmark starts every measured child from this small process rather
than from the harness: Linux carries the spawning process's resident size
into the child's ru_maxrss, so spawning from the harness would put the
harness's own memory into peak_rss_mb.  The child inherits stdout and
stderr.  A child still running after TIMEOUT_S seconds is killed.
"""

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: spawn.py RESULT.json TIMEOUT_S -- CMD...", file=sys.stderr)
        return 2
    result_path, timeout, cmd = argv[0], int(argv[1]), argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    with open(result_path, "w") as f:
        json.dump({"exit_code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "maxrss_kb": usage.ru_maxrss,
                   "cpu_s": usage.ru_utime + usage.ru_stime}, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
