"""Run commands for the benchmark and report their wall time and peak RSS.

Reads one JSON request per line on stdin::

    {"cmd": [...], "env": {...}, "cwd": "...", "stdout": PATH, "stderr": PATH, "timeout": S}

and answers each with one JSON line: ``wall_s``, ``rss_kb``, ``exit`` and
``timed_out``.  It exits when stdin closes.

Why a separate process: on Linux a child's ``ru_maxrss`` includes the
resident size of the process it was forked from, because ``exec`` keeps the
high-water mark of the replaced memory map.  The benchmark process holds
sympy and parsed outputs, so its own size would mask the children's.  This
process stays small (started with ``-I -S``, the standard library only, no
output read into memory), below the size of any ``mzv`` process, so the
maximum the kernel reports is the child's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            cwd=request["cwd"], env=request["env"],
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_kb": usage.ru_maxrss,
        "exit": proc.returncode,
        "timed_out": wall >= request["timeout"] and proc.returncode < 0,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
