"""One set-up sample: a fresh interpreter imports hyperdiff.cli and runs the
workload's warm-up job, then prints the CLOCK_MONOTONIC time it became ready.

Usage: python3 perfbench/probe.py WORKLOAD WORK_DIR
(run.py starts it with BLAS threads pinned and src/ on PYTHONPATH.)
"""

import contextlib
import io
import json
import os
import sys
import time

import hyperdiff.cli

from workloads import setup_job


def main() -> int:
    workload, work = sys.argv[1], sys.argv[2]
    job = setup_job(workload)
    config = os.path.join(work, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(job["config"], fh)
    argv = [a.replace("{config}", config).replace("{out}", os.path.join(work, "out"))
            for a in job["argv"]]
    with contextlib.redirect_stdout(io.StringIO()):
        code = hyperdiff.cli.main(argv)
    if code != 0:
        print(f"warm-up job exited {code}", file=sys.stderr)
        return 1
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
