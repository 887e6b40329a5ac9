"""layerflow benchmark: time to solution of three scenario workloads.

    python3 perfbench/run.py --workload dam_bump_wall --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the source tree is found next to this directory, in
`src/`.  For `--seconds` the runner starts fresh `child.py` processes one
at a time; each makes the public calls of `layerflow run <cfg>` on the
config generated for the workload and seed, and applies the correctness
gate (see child.py).  Medians over the processes are reported.

With `--trace 0` every process is untraced and the end-to-end metrics are
reported.  With `--trace 1` untraced and traced processes alternate; the
traced ones give the per-layer metrics (see tracer.py), and the untraced
ones the base of `trace.overhead`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
the human-readable report.  Everything the runs write goes to
`.perfbench_work/` in the source checkout.  `--smoke` runs every workload
at a tiny size, traced and untraced, and checks that every metric named
in BENCHMARK.json is produced with its unit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRACED_MODULES
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A run must end within 180 s even if the program gets much slower.
CHILD_TIMEOUT_S = 30.0
HARD_LIMIT_S = 120.0
# The host's speed swings by up to 1.5x over tens of seconds, for wall and
# CPU time alike.  Each process therefore times a fixed reference kernel
# (reference.py) next to its phases, and phase times are reported
# scaled to this nominal kernel time: seconds at a fixed host speed.  The
# value is the kernel's median on the 2-vCPU x86-64 VM the benchmark was
# defined on (Python 3.11, numpy 2.4); it only sets the scale.
REF_NOMINAL_S = 0.0055
# Children may cache bytecode, as an installed package does, whatever the
# caller's environment says; _warm_bytecode fills the cache.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
MIN_PLAIN = 3       # fewest untraced processes per run, whatever --seconds says
MIN_TRACED = 2      # fewest traced processes per run with --trace 1

# name -> (unit, lower is better)
END_TO_END = {
    "wall_s": ("s", True),
    "setup_s": ("s", True),
    "solve_s": ("s", True),
    "write_s": ("s", True),
    "cell_steps_per_s": ("1/s", False),
    "steps": ("count", True),
    "output_bytes": ("count", True),
    "peak_rss_mib": ("MiB", True),
}

PER_LAYER = {
    "euler.euler_rhs.self_s": "s",
    "euler.hll_fluxes.self_s": "s",
    "euler.euler_rhs.calls": "count",
    "state.velocities.calls_per_rhs": "calls/rhs",
    "state.velocities.self_s": "s",
    "geometry.build_geometry.self_s": "s",
    "geometry.layer_thicknesses.calls_per_rhs": "calls/rhs",
    "geometry.layer_thicknesses.self_s": "s",
    "rheology.stress_closure.calls": "count",
    "rheology.stress_closure.self_s": "s",
    "rheology.viscous_rhs.calls": "count",
    "rheology.viscous_rhs.self_s": "s",
    "gridops.ddx.calls": "count",
    "gridops.ddx.self_s": "s",
    "kinematics.reconstruct_w.calls_per_step": "calls/step",
    "kinematics.reconstruct_w.self_s": "s",
    "energy.audit_self_s": "s",
    "energy.audit_share": "ratio",
    "timeloop.rhs_evals_per_step": "calls/step",
    "timeloop.rhs.self_s": "s",
    "timeloop.stable_dt.self_s": "s",
    "timeloop.step.self_s": "s",
    "timeloop.run.self_s": "s",
    "timeloop.dt_median": "sim_s",
    "timeloop.dt_advective_ratio": "ratio",
    "timeloop.make_context.calls": "count",
    "cli.import_s": "s",
    "scenario.parse_scenario.self_s": "s",
    "output.snapshot_frame.self_s": "s",
    "output.write_snapshot.self_s": "s",
    "output.write_energy_series.self_s": "s",
    "output.bytes_per_s": "B/s",
    "output.wall_share": "ratio",
    "trace.overhead": "ratio",
}
# plus the self time of each traced module, solve and write phases
PER_LAYER.update({f"{layer}.self_s": "s" for layer in TRACED_MODULES})


def _cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    vals = [int(v) for v in fields[1:9]]   # user .. steal
    return vals[7], sum(vals)


def _steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


class Runner:
    """Runs child processes for one workload and seed, one at a time."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.w = WORKLOADS[workload]
        self.dir = WORK / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "scenario.cfg"
        self.config.write_text(config_text(workload, seed, smoke))
        self.records: list[dict] = []

    def child(self, traced: bool) -> dict:
        run_id = len(self.records)
        job = {
            "src": str(SRC), "config": str(self.config),
            "out": str(self.dir / "out"), "result": str(self.dir / "result.json"),
            "spans": str(self.dir / "spans.tsv"), "run_id": run_id,
            "trace": traced, "closed": self.w.closed,
        }
        shutil.rmtree(job["out"], ignore_errors=True)
        Path(job["result"]).unlink(missing_ok=True)
        job_path = self.dir / "job.json"
        job_path.write_text(json.dumps(job))

        before = _cpu_times()
        t0 = time.perf_counter()
        start_mono = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = None, f"killed after {CHILD_TIMEOUT_S:g} s"
        wall = time.perf_counter() - t0
        steal = _steal_share(before, _cpu_times())

        try:
            rec = json.loads(Path(job["result"]).read_text())
        except (OSError, ValueError):
            rec = {"ok": False, "problems": [f"no result (exit {code}): {err.strip()}"]}
        rec.update(run_id=run_id, traced=traced, process_s=wall, steal_share=steal,
                   start_mono=start_mono, ok=bool(rec.get("ok")) and code == 0)
        if rec["ok"]:
            _scale(rec)
        self.records.append(rec)
        return rec

    def run(self, seconds: float, trace: bool, min_plain: int, min_traced: int):
        """Start processes while one more would end within `seconds`, or
        within HARD_LIMIT_S until the minimum counts have run."""
        start = time.perf_counter()
        walls = []
        while True:
            n_plain = sum(not r["traced"] for r in self.records)
            n_traced = len(self.records) - n_plain
            enough = n_plain >= min_plain and (not trace or n_traced >= min_traced)
            typical = statistics.median(walls) if walls else 0.0
            if time.perf_counter() - start + typical > (seconds if enough else HARD_LIMIT_S):
                return
            walls.append(self.child(trace and n_traced < n_plain)["process_s"])


SCALED = ("wall_s", "setup_s", "solve_s", "write_s")


def _scale(rec):
    """Add the end-to-end metrics of one process, scaled to REF_NOMINAL_S.

    The wall time runs from the process start to the end of the write
    phase, without what the child adds to `layerflow run` before then;
    the correctness gate and the result file come after it.  Each phase is
    scaled by the reference timings taken next to it: setup by the one
    after the import, solve by those before and after it, write by those
    around it, and the whole process by all three.
    """
    a, b, c = rec["ref_s"]
    rec["wall_raw_s"] = rec["done_mono"] - rec["start_mono"] - rec["extra_s"]
    refs = {"setup_s": a, "solve_s": (a + b) / 2, "write_s": (b + c) / 2,
            "wall_s": (a + b + c) / 3}
    for name in SCALED:
        rec[name] = rec[name.replace("_s", "_raw_s")] * REF_NOMINAL_S / refs[name]
    rec["cell_steps_per_s"] = rec["n_cells"] * rec["steps"] / rec["solve_s"]


def _warm_bytecode():
    """Compile the package's bytecode once, so no measured process pays for it."""
    subprocess.run([sys.executable, "-c", "import layerflow.cli"],
                   cwd=str(SRC), env=CHILD_ENV, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=CHILD_TIMEOUT_S)


def _tail(values, lower_is_better):
    """The worst-side percentile with at least ten samples beyond it."""
    n = len(values)
    s = sorted(values, reverse=not lower_is_better)
    if n <= 10:
        return ("max" if lower_is_better else "min"), s[-1]
    pct = 100 * (n - 10) // n
    return f"p{pct if lower_is_better else 100 - pct}", s[n - 11]


def _layer_value(rec, name):
    if name == "output.wall_share":
        return rec["layers"]["output.self_s"] / rec["wall_raw_s"]
    return rec["layers"][name]


def summarize(records, trace: bool):
    """(end-to-end medians, per-layer medians) over the successful runs."""
    plain = [r for r in records if r["ok"] and not r["traced"]]
    traced = [r for r in records if r["ok"] and r["traced"]]
    e2e = {k: statistics.median(r[k] for r in plain) for k in END_TO_END} if plain else {}
    layers = {}
    if trace and traced and plain:
        layers = {k: statistics.median(_layer_value(r, k) for r in traced)
                  for k in PER_LAYER if k != "trace.overhead"}
        layers["trace.overhead"] = (statistics.median(r["solve_s"] for r in traced)
                                    / e2e["solve_s"])
    return e2e, layers


def _report(name, seed, records, e2e, layers):
    plain = [r for r in records if r["ok"] and not r["traced"]]
    ok = [r for r in records if r["ok"]]
    failed = [r for r in records if not r["ok"]]
    steal = [r["steal_share"] for r in records if r["steal_share"] is not None]
    print(f"workload {name}  seed {seed}  processes {len(records)} "
          f"({len(plain)} untraced ok, {len(failed)} failed)")
    if ok:
        print(f"python {ok[0]['python']}  numpy {ok[0]['numpy']}")
    if steal:
        print(f"host steal share per process: median {statistics.median(steal):.4f} "
              f"max {max(steal):.4f}")
    print(f"{'metric':42s} {'unit':9s} {'median':>14s} {'tail':>20s} {'n':>4s} "
          f"{'unscaled median':>16s}")
    for k, (unit, lower) in END_TO_END.items():
        if k in e2e:
            label, v = _tail([r[k] for r in plain], lower)
            raw = k.replace("_s", "_raw_s") if k in SCALED else None
            raw = f"{statistics.median(r[raw] for r in plain):16.6g}" if raw else ""
            print(f"{k:42s} {unit:9s} {e2e[k]:14.6g} {label:>6s} {v:13.6g} "
                  f"{len(plain):4d} {raw}")
    print(f"{'failed_runs':42s} {'share':9s} {len(failed) / max(len(records), 1):14.6g} "
          f"{'':>20s} {len(records):4d}")
    for k, v in layers.items():
        print(f"{k:42s} {PER_LAYER[k]:9s} {v:14.6g}")
    for r in ok[-1:]:
        print(f"sha256 energy.csv      {r['sha256_energy']}")
        print(f"sha256 final snapshot  {r['sha256_final_snapshot']}")
    for r in failed:
        print(f"FAILED process {r['run_id']}: " + "; ".join(r["problems"]))


def _result_line(records, metrics, units):
    failed = sum(not r["ok"] for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    runner = Runner(workload, seed, smoke=False)
    _warm_bytecode()
    runner.run(seconds, trace, MIN_PLAIN, MIN_TRACED)
    e2e, layers = summarize(runner.records, trace)
    _report(workload, seed, runner.records, e2e, layers)
    (runner.dir / "summary.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
         "end_to_end": e2e, "per_layer": layers, "records": runner.records},
        indent=1))
    metrics = layers if trace else e2e
    if not metrics:
        print("error: no successful run, nothing to report", file=sys.stderr)
        return 1
    units = PER_LAYER if trace else {k: u for k, (u, _) in END_TO_END.items()}
    print(_result_line(runner.records, metrics, units))
    return 0


def smoke() -> int:
    """Tiny runs of every workload; every declared metric must appear."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [(m["name"], m["unit"])
            for m in declared["end_to_end"] + declared["per_layer"]]
    bad = []
    _warm_bytecode()
    for name in WORKLOADS:
        runner = Runner(name, 0, smoke=True)
        runner.run(0.0, True, 1, 1)
        e2e, layers = summarize(runner.records, True)
        _report(name, 0, runner.records, e2e, layers)
        got = {k: END_TO_END[k][0] for k in e2e}
        got.update({k: PER_LAYER[k] for k in layers})
        bad += [f"{name}: process {r['run_id']} failed" for r in runner.records
                if not r["ok"]]
        bad += [f"{name}: {m} missing or not in {unit}" for m, unit in want
                if got.get(m) != unit]
    for line in bad:
        print("SMOKE FAIL " + line)
    print("smoke ok" if not bad else f"smoke failed: {len(bad)} problems")
    return 0 if not bad else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny run of every workload, checks every metric appears")
    args = p.parse_args(argv)
    if not (SRC / "layerflow" / "__init__.py").is_file():
        print(f"error: no layerflow source tree under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
