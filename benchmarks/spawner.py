"""Runs the measured ``cohmin`` processes for ``run.py``, one at a time.

A child's max-RSS includes the peak RSS of the process that forked it, and
the harness's peak is high: it holds every expected output and times its
reference work.  Forking the measured processes from this small,
long-lived process keeps ``peak_rss_mb`` their own.  Their output goes to
files, so it never passes through this process's memory.

One JSON line each way.  A request ``{"argv", "cwd", "out", "err",
"timeout"}`` runs one process and replies ``{"seconds", "code",
"timed_out"}``, timed from spawn to exit.  An empty request ``{}`` replies
``{"peak_rss_kb"}``, the largest max-RSS of the processes run so far.  End
of input ends this process.
"""

import json
import resource
import subprocess
import sys
from time import perf_counter


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
        try:
            proc.wait(timeout=req["timeout"])
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            timed_out = True
        seconds = perf_counter() - t0
    return {"seconds": seconds, "code": proc.returncode, "timed_out": timed_out}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        if req:
            reply = run(req)
        else:
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
