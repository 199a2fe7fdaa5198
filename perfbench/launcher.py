"""Start child processes on request; report their wall time and peak RSS.

A child's peak RSS as wait4 reports it is at least the resident size of
the process it was forked from, so the benchmark starts this small process
before it loads any input, and forks every measured child from here.

One JSON request per line on stdin, {"argv", "cwd", "stderr", "timeout"};
one JSON reply per line on stdout, {"wall_s", "scale", "maxrss_kb",
"status", "timed_out"}: status is the exit code (minus the signal number
when a signal ended the child), and scale turns wall_s into seconds at the
reference speed (see speed.py). Children inherit this process's
environment and CPU. End of input ends the loop.
"""

import json
import os
import subprocess
import sys
import threading
import time

import speed


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err, speed.Sampler() as cpu:
            started = time.perf_counter()
            child = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=err)
            expired = threading.Event()

            def expire() -> None:
                expired.set()
                child.kill()

            timer = threading.Timer(request["timeout"], expire)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "scale": cpu.scale,
            "maxrss_kb": usage.ru_maxrss,
            "status": child.returncode,
            "timed_out": expired.is_set(),
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
