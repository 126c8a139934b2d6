"""Peak RSS and wall time of one CLI command, run as a child process of
each of two source trees in turn.

    python tools/child_rss.py [--runs N] OLD NEW -- color --in s.txt --out c.txt

OLD and NEW are source trees, each with the package under `src/`.  The
command runs N times per tree (default 5), alternating OLD, NEW, OLD,
..., so drift on the machine falls on both sides alike.  Each child runs
`streamcolor.cli.main` with the command's arguments in the current
directory, stdout discarded; its peak RSS is ru_maxrss from os.wait4.
Prints one line per tree: its median and range of peak RSS in MB (MiB,
as perfbench reports it) and of wall time in seconds, then the exit
codes seen.

Linux counts in a child's ru_maxrss the memory of the process it was
started from, which it holds until it execs.  So each run is started
by a fresh, small launcher process, which times and waits for it and
reports its figures: a test process holding 44 MB read 44 MB for a
`color` child that holds 30.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

CLI = "import sys; from streamcolor.cli import main; sys.exit(main())"
# runs argv[1:], discarding its stdout, and prints its exit code, its
# ru_maxrss in KiB and its wall time in seconds
LAUNCH = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, wall)
"""


class Run(NamedTuple):
    exit_code: int
    rss_bytes: int
    wall_s: float


def child(tree: str | Path, args: list[str]) -> Run:
    """One run of the CLI of the source tree `tree` with `args`."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    launched = subprocess.run(
        [sys.executable, "-c", LAUNCH, sys.executable, "-c", CLI, *args],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        check=True,
    )
    code, rss_kib, wall = launched.stdout.split()
    return Run(int(code), int(rss_kib) * 1024, float(wall))


def _summary(values: list[float], fmt: str) -> str:
    return f"{statistics.median(values):{fmt}} [{min(values):{fmt}}, {max(values):{fmt}}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per tree")
    parser.add_argument("old", help="the first source tree")
    parser.add_argument("new", help="the second source tree")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.runs < 1 or not command:
        parser.error("need --runs >= 1 and a command after --")
    runs: dict[str, list[Run]] = {"old": [], "new": []}
    for _ in range(args.runs):
        for side in runs:
            runs[side].append(child(getattr(args, side), command))
    print("side  rss_mb median [min, max]     wall_s median [min, max]  exit")
    for side, got in runs.items():
        rss = _summary([r.rss_bytes / (1 << 20) for r in got], ".2f")
        wall = _summary([r.wall_s for r in got], ".3f")
        codes = ",".join(str(code) for code in sorted({r.exit_code for r in got}))
        print(f"{side:<5} {rss:<26} {wall:<25} {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
