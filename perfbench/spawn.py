"""Start benchmark children from a small process and time them.

On Linux a child's peak RSS, as ``wait4`` reports it, is at least the RSS
of the process it was forked from.  run.py holds numpy, smframe and span
tables, so it starts every child through this stdlib-only process.

Protocol: one JSON request per line on stdin, with ``argv``, ``cwd``,
``env``, ``stdout``, ``stderr`` and ``timeout``; one JSON reply per line on
stdout, with ``wall_s``, ``cpu_s``, ``maxrss_kb`` and ``returncode``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
