"""Starts the benchmark's child processes and reports their resource use.

Reads one JSON request per stdin line ({"argv", "env", "cwd", "log",
"timeout"}), runs it to completion and answers one JSON line
({"exit", "t_spawn", "wall", "maxrss_kib"}).  Exits at end of input.

The children are started from this small process rather than from the
benchmark's main process because Linux carries the spawning process's
peak RSS over exec into the child's ru_maxrss; started from here, the
figure wait4 returns is the child's own peak.  Keep this module free of
heavy imports for the same reason.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"], stdout=log, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(request["timeout"])
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "t_spawn": t0, "wall": wall, "maxrss_kib": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
