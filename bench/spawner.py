"""Small helper process that runs each timed CLI call as its own child.

A process started by run.py itself would report run.py's RSS high-water
mark as its own peak: exec records the high-water mark of
the address space it replaces, which for a vfork/posix_spawn child is the
parent's, into the child's ru_maxrss.  run.py holds corpora and expected
outputs, so it starts this process instead, which imports next to nothing,
and every timed call is a child of it.  Peak RSS comes from os.wait4 on
that one child.

Protocol on stdin/stdout: each request is one JSON line
{"argv": [...], "stderr": path, "timeout_s": t}; each reply is one JSON
line {"wall_s", "first_output_s", "maxrss_kb", "returncode", "timed_out",
"stdout_bytes"} followed by exactly stdout_bytes bytes of the child's
stdout.  The process exits at end of input.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, stderr_path, timeout_s):
    read_fd, write_fd = os.pipe()
    err_fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null_fd = os.open(os.devnull, os.O_RDONLY)
    actions = [
        (os.POSIX_SPAWN_DUP2, null_fd, 0),
        (os.POSIX_SPAWN_DUP2, write_fd, 1),
        (os.POSIX_SPAWN_DUP2, err_fd, 2),
        (os.POSIX_SPAWN_CLOSE, read_fd),
    ]
    chunks = []
    first = None
    timed_out = False
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        for fd in (write_fd, err_fd, null_fd):
            os.close(fd)
    try:
        deadline = start + timeout_s
        while True:
            ready, _, _ = select.select([read_fd], [], [], max(0.0, deadline - time.perf_counter()))
            if not ready:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            if first is None:
                first = time.perf_counter()
            chunks.append(chunk)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
    finally:
        os.close(read_fd)
    out = b"".join(chunks)
    reply = {
        "wall_s": end - start,
        "first_output_s": (first if first is not None else end) - start,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "stdout_bytes": len(out),
    }
    return json.dumps(reply).encode() + b"\n" + out


def main():
    for line in sys.stdin.buffer:
        request = json.loads(line)
        sys.stdout.buffer.write(run(request["argv"], request["stderr"], request["timeout_s"]))
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
