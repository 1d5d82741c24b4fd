"""Starts the processes the benchmark times, one per request line, and
answers each with its wall time, peak RSS and exit status.

A child's ru_maxrss also counts the memory of the process it was spawned
from, up to its exec.  The benchmark itself grows while it checks outputs,
so it hands every spawn to this small process instead.

Request, one JSON line on stdin: {"argv": [...], "stdout": path or null
for none, "stderr": path or null to share ours, "timeout": seconds}.  Answer, one JSON line on
stdout: {"wall": s, "rss_kb": n, "code": exit status}.  The child runs in a
session of its own; whatever it leaves running there is killed, and so is
the child when the timeout passes.
"""

import json
import os
import signal
import sys
import time


def kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"] or os.devnull, flags, 0o644)]
        if req["stderr"]:
            actions.append((os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644))
        t0 = time.perf_counter()
        pid = os.posix_spawnp(req["argv"][0], req["argv"], os.environ, file_actions=actions, setsid=True)
        signal.signal(signal.SIGALRM, lambda *_: kill_session(pid))
        signal.alarm(max(1, int(req["timeout"])))
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - t0
        kill_session(pid)
        answer = {"wall": wall, "rss_kb": usage.ru_maxrss, "code": os.waitstatus_to_exitcode(status)}
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
