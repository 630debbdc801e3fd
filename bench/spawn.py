"""Child-process launcher for the spotrank benchmark.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "env", "stdout",
"stderr"}``, runs that command to completion and answers with one JSON line:
exit code, wall seconds, and the child's own peak RSS and CPU time from
``os.wait4``.

It runs as its own small process because Linux charges a child's
``ru_maxrss`` with the resident size of the process that spawned it: a
launcher that generated 100 MB of inputs would report at least 100 MB for
every child.  This process imports only the standard library and never
holds benchmark data.  ``RUSAGE_CHILDREN`` is not used either: it reports the
largest child reaped so far, not the one just reaped.
"""

import json
import os
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "max_rss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
