#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` binary in release mode (into $CARGO_TARGET_DIR,
or perfbench/target), restricts the CPU affinity to at most two CPUs so
the run and its campaign workers use one thread per CPU, fixes glibc's
allocator thresholds, and replaces itself with the binary. Build output goes to stderr; the binary's last
stdout line is the JSON result. Exits non-zero without a result when
the build or the run fails.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    pid = os.fork()
    if pid == 0:
        # Keep stdout for the result line: cargo reports on stderr.
        os.dup2(2, 1)
        try:
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
    # By default glibc raises its mmap and trim thresholds after the first
    # large free, so how much freed memory stays resident depends on the
    # order of earlier allocations: peak RSS then moved by up to 40 %
    # between runs of one workload. Fixed thresholds return large blocks
    # to the system when they are freed. (Capping the arenas as well made
    # the two pool threads share one arena in some runs, halving the
    # packet engine's speed.)
    os.environ.update(
        MALLOC_MMAP_THRESHOLD_="65536",
        MALLOC_TRIM_THRESHOLD_="65536",
    )
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
