"""Starts the benchmark's CLI invocations and reports wall time and max RSS.

    python3 perfbench/spawn.py      (started by run.py; one JSON request a line)

On Linux a child's ``ru_maxrss`` includes the peak RSS of the address space
it replaced at ``exec``, which for a child spawned by the benchmark process
is that process's own peak (it holds every scene).  Children started from
this small process therefore report their own peak, not the benchmark's.

Each request is ``{"argv": [...], "cwd": ..., "stdout": ..., "stderr": ...}``;
each reply is ``{"wall_s": ..., "maxrss_kb": ..., "exit": ...}``.  The
environment of every child is this process's own.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    # Unwind on SIGTERM so a running child is killed and reaped first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, \
                open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=req["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                          "exit": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
