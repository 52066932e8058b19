"""Run one command and report what it used, free of the caller's memory.

    python perfbench/spawn.py PROGRAM [ARG...]

Prints one JSON line, ``[wall s, user+sys s, peak RSS MB, exit code]``, of
PROGRAM; its own standard output is discarded. On Linux a child's
``ru_maxrss`` is at least the memory high-water mark of the process that
started it, because exec keeps the old image's peak. ``run.py`` grows while
it checks outputs (the census dump alone is 7 MB of JSON), so its children
would report its peak instead of their own. This launcher stays small, so
the figure is PROGRAM's.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execv(sys.argv[1], sys.argv[1:])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps([wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      os.waitstatus_to_exitcode(status)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
