"""The golden digests hold on every x86-64 host.

A run's bits may depend on IEEE double arithmetic, numpy's own
elementwise operations and numpy's pairwise sums, and on nothing the
host picks: not the OpenBLAS kernel or thread count (`np.vdot` and its
kin), nor numpy's AVX-512 or AVX2 loops for transcendental functions
(`np.exp`, `np.power` with any exponent but 2, ...).  A syntax-tree
guard keeps those calls out of the modules a run executes, and child
processes run the goldens under the other dispatch and BLAS threads.
"""
import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from layerflow.scenario import exp_nonpositive

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "layerflow"
# acceptance.py prints its figures to at most 5 significant digits
RUN_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "acceptance.py")

# numpy names whose bits follow the BLAS kernel and threads or the SIMD dispatch
HOST_DEPENDENT = {"vdot", "dot", "inner", "matmul", "linalg", "exp", "exp2", "expm1", "log",
                  "log1p", "log2", "log10", "logaddexp", "logaddexp2", "power", "float_power",
                  "cbrt", "arctan", "arctan2", "arctanh"}


def host_dependent_operations(source: str) -> list[str]:
    """The numpy calls, `@` and `**` (but `** 2`) of `source`, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and node.attr in HOST_DEPENDENT):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, f"np.{a.name}") for a in node.names
                      if a.name in HOST_DEPENDENT or node.module == "numpy.linalg"]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(node.op, ast.MatMult):
                found.append((node.lineno, "@"))
            elif isinstance(node.op, ast.Pow) and not (isinstance(exponent, ast.Constant)
                                                        and type(exponent.value) is int
                                                        and exponent.value == 2):
                found.append((node.lineno, "**"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_a_run_calls_no_host_dependent_operation():
    found = {p.name: host_dependent_operations(p.read_text()) for p in RUN_MODULES}
    assert {name: ops for name, ops in found.items() if ops} == {}


def test_a_planted_host_dependent_operation_is_found_and_an_exact_one_is_not():
    source = ("import numpy as np\n"
              "from numpy import exp, sqrt\n"
              "from numpy.linalg import norm\n"
              "def f(a, b, x):\n"
              "    s = np.vdot(a, b) + np.linalg.norm(a) + (a @ b)\n"
              "    a **= 3\n"
              "    y = np.sqrt(x * x * x) + np.add.reduce((a * b).ravel()) + x ** 2\n"
              "    return np.log1p(x) + x ** 2.0 + x ** 0.5 + np.logical_and(x, y)\n")
    assert host_dependent_operations(source) == [
        "line 2: np.exp", "line 3: np.norm", "line 5: @", "line 5: np.linalg", "line 5: np.vdot",
        "line 6: **", "line 8: **", "line 8: **", "line 8: np.log1p"]


def test_the_bump_exp_is_within_an_ulp_of_numpys_and_zero_past_its_range():
    rng = np.random.default_rng(5)
    x = np.concatenate([-745.0 * rng.random(400_000), -rng.random(100_000),
                        -np.logspace(-20, np.log10(745.0), 20_000), [-745.0, -0.0, 0.0]])
    ulps = np.abs(exp_nonpositive(x).view(np.int64) - np.exp(x).view(np.int64))
    assert ulps.max() <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        far = exp_nonpositive(np.array([-np.inf, -1e300, -746.0]))
    assert far.tobytes() == np.zeros(3).tobytes()


def _child_env(**switches) -> dict:
    return dict(os.environ, PYTHONPATH=str(PACKAGE.parent), **switches)


# OpenBLAS's kernels for AVX2-only CPUs such as AMD Zen 2/3, and numpy's
# AVX-512 loops off; numpy accepts the names on hosts without those features
AVX2_DISPATCH = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
                 "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def test_the_goldens_and_pinned_criteria_hold_under_the_avx2_dispatch(tmp_path):
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"--basetemp={tmp_path / 'child'}", "tests/test_golden.py", "tests/test_acceptance.py",
            "-k", "reproduces_golden or over_the_cap or (criterion and not fails)"]
    done = subprocess.run(args, cwd=ROOT, env=_child_env(**AVX2_DISPATCH),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:]
    assert done.stdout.splitlines()[-1].startswith("21 passed,"), done.stdout[-3000:]


SHEAR_12 = """mesh.x_min = 0
mesh.x_max = 1
mesh.n_cells = 1000
boundary.kind = periodic
layers.n = 12
bathymetry.kind = flat
bathymetry.z0 = -0.5
init.kind = shear
init.eta0 = 0.5
init.u = 0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55
physics.g = 9.81
physics.mu = 1e-3
physics.k_l = 0.01
physics.k_t = 0.01
controls.t_end = 0.001
output.snapshot_every = 0
"""


def test_a_viscous_run_of_12000_unknowns_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # OpenBLAS splits a dot product of this size between its threads, whose
    # partial sums round differently: 5 steps, each with a viscous stage
    cfg = tmp_path / "shear.cfg"
    cfg.write_text(SHEAR_12)
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-m", "layerflow.cli", "run", str(cfg), "--output",
                        str(out)], env=_child_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True)
        written.append((out / "energy.csv").read_bytes())
    assert written[0] == written[1] and written[0].count(b"\n") == 7


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "set"])
def test_importing_layerflow_starts_no_blas_worker_unless_asked(threads):
    # a fresh process counts its threads after `import layerflow`; an
    # explicit OPENBLAS_NUM_THREADS wins (OpenBLAS caps it at the CPUs)
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = ("import os, layerflow; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    expected = min(2, len(os.sched_getaffinity(0))) if threads else 1
    assert done.stdout.split() == [str(expected), str(threads)]
