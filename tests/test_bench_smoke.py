"""The benchmark's smoke mode runs against this checkout's library.

``bench/run.py --smoke`` drives every workload at toy size through the
same library calls and checks as a full benchmark run, traced and
untraced, so a change that breaks the benchmark's view of the library
fails here.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(BENCH), "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("smoke ")]
    assert len(lines) == 6 and all(" ok " in line for line in lines), proc.stdout
