"""Host-speed calibration for the benchmark's timings.

    python3 perfbench/calibrate.py     # prints one timing per line read on stdin

The shared host's speed drifts by tens of percent within minutes, and it
moves NumPy element-wise work, BLAS work and interpreter work together.
``calibrate`` times a fixed mix of all three that never calls
``spherenorms``; the benchmark times it right before and after each sample
and scales the sample's wall time by it.  It runs in a helper interpreter of
its own (``Calibrator``), so its arrays do not count in the peak memory of
the process running the sweeps.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# 2M doubles: 16 MB per array, more than the last-level cache, so the
# element-wise part also feels contention for memory bandwidth.
N_ELEMENTS = 2_000_000


def calibrate(x: np.ndarray, y: np.ndarray, z: np.ndarray, a: np.ndarray) -> float:
    """Seconds for two element-wise passes over x, two QR factorizations and
    Gram products of a, and an interpreter loop.  y and z are scratch arrays
    shaped like x."""
    t0 = time.perf_counter()
    for _ in range(2):
        np.negative(x, out=z)
        np.exp(z, out=z)
        np.cos(x, out=y)
        np.multiply(y, z, out=y)
        np.sqrt(x, out=z)
        np.add(y, z, out=y)
    for _ in range(2):
        np.linalg.qr(a)
        a.T @ a
    total, seen = 0, {}
    for i in range(150_000):
        total += i * i % 7
        seen[i & 1023] = total
    return time.perf_counter() - t0


class Calibrator:
    """A helper interpreter that times ``calibrate`` each time it is called.

    Use it as a context manager: leaving the block ends the helper and waits
    for it.  The helper gets ``env`` (default: the caller's environment), which
    must pin its BLAS threads like the sweeps'."""

    def __init__(self, env: dict | None = None):
        self.env = env

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())], env=self.env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration helper ended with code {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def main() -> int:
    rng = np.random.default_rng(0)
    x = rng.random(N_ELEMENTS)
    y, z = np.empty_like(x), np.empty_like(x)
    a = rng.random((1500, 200))
    calibrate(x, y, z, a)  # untimed: faults in the pages and loads LAPACK
    for _ in sys.stdin:
        print(calibrate(x, y, z, a), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
