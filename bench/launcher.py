"""Start lzwmetrics CLI children on request and report their wall time and rusage.

Linux carries the peak RSS of the process that spawns a child into the
child's ``ru_maxrss`` when the child execs, so a child started by the
benchmark itself, which holds the generated inputs, would report the
benchmark's peak instead of its own.  This stdlib-only helper stays small,
and every CLI child is started from it.

Protocol: each stdin line is a JSON list of CLI arguments; the child runs
in the current directory, and one JSON line ``[exit status, wall s, cpu s,
maxrss KiB, stdout, stderr]`` answers it.  Output travels through pipes,
not files, so the benchmark adds no disk writes to the timed region.  The
helper exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def _drain(stream, sink: list) -> None:
    sink.append(stream.read())


def main() -> None:
    timeout = float(sys.argv[1])
    for line in sys.stdin:
        cmd = [sys.executable, "-m", "lzwmetrics", *json.loads(line)]
        out: list[bytes] = []
        err: list[bytes] = []
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        readers = [
            threading.Thread(target=_drain, args=(proc.stdout, out)),
            threading.Thread(target=_drain, args=(proc.stderr, err)),
        ]
        for reader in readers:
            reader.start()
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
        for reader in readers:
            reader.join()
        proc.stdout.close()
        proc.stderr.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = [
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
            out[0].decode(),
            err[0].decode(),
        ]
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
