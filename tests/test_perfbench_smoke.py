"""The benchmark harness still drives the package.

`perfbench/run.py --smoke` runs every workload at tiny sizes through the
same public calls as a full benchmark run and checks that every declared
metric comes out.  A rename that breaks the harness fails here instead
of in every later benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_succeeds():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
