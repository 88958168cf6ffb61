"""Launcher of the measured children, kept small on purpose.

On Linux a child's ``ru_maxrss`` starts from its launcher's memory: a
vfork-based spawn inherits the launcher's RSS high-water mark, fork+exec
its current RSS.  The benchmark process holds references and parsed
outputs of hundreds of MiB, so it starts every measured child through this
process, which imports only the standard library and stays at a few MiB.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "stdout",
"stderr", "timeout"}``; one JSON reply per line on stdout, ``{"wall",
"maxrss_kib", "code"}``.  The wall runs from just before the spawn until
the child has exited.  A child still running after ``timeout`` seconds is
killed.  Exits when stdin closes.
"""

import json
import os
import signal
import sys
import threading
from time import perf_counter


def run(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644),
    ]
    lock = threading.Lock()
    exited = False

    def kill() -> None:
        with lock:
            if not exited:
                os.kill(pid, signal.SIGKILL)

    start = perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    timer = threading.Timer(req["timeout"], kill)
    timer.start()
    # Wait without reaping first, so the timer can never signal a reused pid.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = perf_counter() - start
    with lock:
        exited = True
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(pid, 0)
    return {"wall": wall, "maxrss_kib": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
