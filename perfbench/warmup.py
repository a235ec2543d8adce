"""Process set-up shared by the benchmark and by its set-up probe.

Set-up is what a fresh process pays before its first timed item: importing
permlab, numpy and mpmath from the checkout's `src/`, then warming up with
the first `eigh`, the first `einsum` and one small dilation.

Run as a script, this file sets up once and prints the CLOCK_MONOTONIC time
at which set-up finished; `run.py` starts it several times and takes the
median of (finish - start) as `setup_s`.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: at most nproc on any machine, and no thread start-up or
# oversubscription noise in the timings.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout does not hold an importable permlab source tree."""


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_permlab():
    """Import permlab from the checkout's `src/`, never from site-packages."""
    if not (SRC / "permlab" / "__init__.py").is_file():
        raise SetupError(f"no permlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import permlab

    if Path(permlab.__file__).resolve().parent != SRC / "permlab":
        raise SetupError(f"permlab imported from {permlab.__file__}, not from {SRC}")
    return permlab


def warm_up() -> None:
    import mpmath  # noqa: F401  (imported for its set-up cost)
    import numpy as np
    from permlab import harness, suite  # noqa: F401

    a = np.random.default_rng(0).normal(size=(256, 256))
    np.linalg.eigh(a + a.T)
    np.einsum("ij,jk->ik", a, a)
    config = harness.ExperimentConfig(subcommand="dilate", n=1, queries=1, trials=1)
    code, header, rows = harness.execute(config)
    harness.render_csv(header, rows)


def set_up() -> None:
    pin_blas_threads()
    import_permlab()
    warm_up()


if __name__ == "__main__":
    try:
        set_up()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    print(repr(time.monotonic()))
