#!/usr/bin/env python3
"""Time the README's CLI examples, and a few larger runs, end to end on two checkouts.

Each command runs as a fresh `python -m permlab` process from a checkout's
`src/`, at 1 BLAS thread, one process at a time. The two checkouts alternate
run by run (base first in even pairs, change first in odd ones), so drift of
the host's speed falls on both sides alike. A `--out FILE` in a command is
dropped, so its CSV goes to stdout, where the two sides' bytes are compared.

Prints one CSV row per command: the median and quartiles of each side's wall
time in seconds, the number of pairs in which the change was faster, and
whether every run of both sides gave the same exit status and stdout.

    python3 scripts/bench_e2e.py BASE_CHECKOUT CHANGE_CHECKOUT --repeat 5
    python3 scripts/bench_e2e.py BASE CHANGE --command "fix --V 16 --k 4 --p 2 --trials 50"
"""

import argparse
import csv
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Run after the README examples: sizes past them that the examples do not reach.
EXTRA_COMMANDS = ("verify --n 5 --trials 2", "relation --kind preimage --n 2",
                  "dilate --n 1 --queries 4")


def readme_commands(readme: Path) -> list[str]:
    """The `permlab ...` lines of the README's fenced blocks, without `permlab`."""
    text = readme.read_text()
    lines = (line.strip() for block in re.findall(r"```\n(.*?)```", text, re.S)
             for line in block.splitlines())
    return [line.removeprefix("permlab ") for line in lines if line.startswith("permlab ")]


def without_out(args: list[str]) -> list[str]:
    """`args` with any `--out FILE` dropped."""
    kept, skip = [], False
    for arg in args:
        if skip:
            skip = False
        elif arg == "--out":
            skip = True
        elif not arg.startswith("--out="):
            kept.append(arg)
    return kept


def run_once(checkout: Path, args: list[str]) -> tuple[float, int, bytes]:
    """Wall seconds, exit status and stdout of one `permlab` process."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update({name: "1" for name in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "permlab", *args], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def compare(base: Path, change: Path, command: str, repeat: int) -> list:
    """One CSV row for `command`: per-side median and quartiles, faster pairs, same output."""
    args = without_out(shlex.split(command))
    times = {base: [], change: []}
    outputs = set()
    for pair in range(repeat):
        for side in ((base, change) if pair % 2 == 0 else (change, base)):
            wall, status, stdout = run_once(side, args)
            times[side].append(wall)
            outputs.add((status, stdout))
    row = [command]
    for side in (base, change):
        q1, median, q3 = np.percentile(times[side], [25, 50, 75])
        row += [f"{median:.4f}", f"{q1:.4f}", f"{q3:.4f}"]
    faster = sum(c < b for b, c in zip(times[base], times[change]))
    return row + [faster, repeat, len(outputs) == 1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="checkout timed as the baseline")
    parser.add_argument("change", type=Path, help="checkout timed as the change")
    parser.add_argument("--repeat", type=int, default=5, help="runs per side and command")
    parser.add_argument("--command", action="append", default=None,
                        help="permlab arguments to time, instead of the README examples "
                             "of the change checkout and EXTRA_COMMANDS (repeatable)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    base, change = args.base.resolve(), args.change.resolve()
    commands = args.command or [*readme_commands(change / "README.md"), *EXTRA_COMMANDS]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["command", "base_median_s", "base_q1_s", "base_q3_s", "change_median_s",
                     "change_q1_s", "change_q3_s", "change_faster_pairs", "pairs", "same_output"])
    for command in commands:
        writer.writerow(compare(base, change, command, args.repeat))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
