"""One fresh-process run of the `layerflow run <cfg>` sequence.

    python3 perfbench/child.py <job.json>

The job file names the source tree, the config, the output directory,
the result file and whether to trace.  The child makes the public calls
`layerflow run` makes, in the same order, and times three phases:

- setup: `import layerflow.cli`, reading and parsing the config, make_rhs
- solve: run()
- write: make_context, snapshot_frame / write_snapshot per frame,
  write_energy_series

It also times the reference kernel of reference.py right after the
import, between solve and write, and after write, so the runner can
scale the phase times to a fixed host speed, and stamps the end of the
write phase on CLOCK_MONOTONIC, so the runner's wall time stops there.
It then applies the correctness gate to what it computed and wrote and
writes one JSON result.  It exits 1 if the run raised or failed the gate.
"""
import json
import os
import sys
import time
from contextlib import nullcontext

MASS_TOL = 1e-12     # relative mass drift where no mass can cross a boundary
ENERGY_TOL = 1e-12   # relative step-to-step energy growth allowed (round-off)


def main(job_path: str) -> int:
    with open(job_path) as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    res = {"ok": False, "problems": []}
    try:
        code = _measure(job, res)
    except Exception:  # a raising run is a failed run, reported with its traceback
        import traceback
        res["problems"].append(traceback.format_exc())
        code = 1
    with open(job["result"], "w") as f:
        json.dump(res, f)
    return code


def _measure(job, res) -> int:
    t0 = time.perf_counter()
    import layerflow.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(job["src"] + os.sep):
        raise RuntimeError(f"layerflow was imported from {cli.__file__}, "
                           f"not from {job['src']}")

    import numpy as np
    from layerflow import timeloop
    from reference import reference_s

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def phase(name):
        return tracer.phase(name) if tracer else nullcontext()

    t_ref = time.perf_counter()
    ref_a = reference_s()
    t1 = time.perf_counter()
    with phase("setup"):
        with open(job["config"]) as f:
            text = f.read()
        scn = cli.parse_scenario(text)
        t_rhs = time.perf_counter()
        timeloop.make_rhs(scn)
    t2 = time.perf_counter()
    with phase("solve"):
        result = cli.run(scn)
    t3 = time.perf_counter()
    ref_b = reference_s()
    t3b = time.perf_counter()
    with phase("write"):
        out_dir = job["out"]
        os.makedirs(out_dir, exist_ok=True)
        ctx = cli.make_context(scn)
        snap_paths = []
        for i, (t, diag, state) in enumerate(result.snapshots):
            snap = cli.snapshot_frame(t, state.H, diag, ctx)
            path = os.path.join(out_dir, f"snapshot_{i:04d}.csv")
            cli.write_snapshot(path, snap)
            snap_paths.append(path)
        energy_path = os.path.join(out_dir, "energy.csv")
        cli.write_energy_series(energy_path, result)
    t4 = time.perf_counter()
    # the end of `layerflow run`, on the clock the runner started the process on
    done_mono = time.clock_gettime(time.CLOCK_MONOTONIC)
    ref_c = reference_s()

    import resource
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    written = snap_paths + [energy_path]
    steps = int(result.summary["steps"])
    res.update(
        import_s=import_s,
        setup_raw_s=import_s + (t2 - t1),
        solve_raw_s=t3 - t2,
        write_raw_s=t4 - t3b,
        ref_s=[ref_a, ref_b, ref_c],
        done_mono=done_mono,
        # what the process did before done_mono that `layerflow run` does
        # not: the first two reference kernels, and the setup's make_rhs,
        # which run() repeats
        extra_s=(t1 - t_ref) + (t3b - t3) + (t2 - t_rhs),
        steps=steps,
        n_cells=scn.mesh.n_cells,
        output_bytes=sum(os.path.getsize(p) for p in written),
        peak_rss_mib=peak_rss_mib,
        sha256_energy=_sha256(energy_path),
        sha256_final_snapshot=_sha256(snap_paths[-1]),
        numpy=np.__version__,
        python=sys.version.split()[0],
    )
    res["problems"] = _gate(scn, result, snap_paths[-1], energy_path, job["closed"])
    if tracer is not None:
        res["layers"] = _layer_metrics(tracer, res)
        tracer.write(job["spans"], job["run_id"])
    res["ok"] = not res["problems"]
    return 0 if res["ok"] else 1


def _sha256(path: str) -> str:
    import hashlib
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _gate(scn, result, final_snap, energy_path, closed):
    """Every way this run is wrong, as messages; empty when it passes."""
    import numpy as np

    problems = []
    t_end = scn.controls.t_end
    t_reached = float(result.summary["t_end"])
    if abs(t_reached - t_end) > 1e-12 * t_end:
        problems.append(f"stopped at t={t_reached!r}, not t_end={t_end!r}")
    H, q = result.final.H, result.final.q
    if not (np.isfinite(H).all() and np.isfinite(q).all()):
        problems.append("final state is not finite")
    elif H.min() < 0.0:
        problems.append(f"final min H = {H.min():.3e} < 0")
    if closed:
        masses = np.array([s.H.sum() for _, _, s in result.snapshots])
        drift = float(np.abs(masses - masses[0]).max() / abs(masses[0]))
        if not drift <= MASS_TOL:
            problems.append(f"mass drift {drift:.3e} > {MASS_TOL:g}")
        E = result.E_total
        growth = float((np.diff(E) / np.abs(E[:-1])).max())
        if not growth <= ENERGY_TOL:
            problems.append(f"energy grew by {growth:.3e} in one step")
    # the files must hold what was computed: the final depths round-trip
    # exactly, and energy.csv has one row per recorded time
    table = np.loadtxt(final_snap, delimiter=",", skiprows=2, ndmin=2)
    if not np.array_equal(table[:, 2], H):
        problems.append("final snapshot H column differs from the final state")
    energy = np.loadtxt(energy_path, delimiter=",", skiprows=1, ndmin=2)
    if energy.shape[0] != result.times.size or energy[-1, 0] != t_reached:
        problems.append("energy.csv rows do not match the recorded times")
    return problems


def _layer_metrics(tracer, res):
    """Per-layer counts and self times of the traced run.

    Calls and self times cover the solve and write phases; the per-RHS and
    per-step ratios count the solve phase only.
    """
    import numpy as np
    from tracer import TRACED_MODULES

    totals = tracer.layer_totals()
    setup, solve, write = (totals.get(p, {}) for p in ("setup", "solve", "write"))

    def calls(name, phases=(solve, write)):
        return sum(p.get(name, (0, 0.0))[0] for p in phases)

    def self_s(name, phases=(solve, write)):
        return sum(p.get(name, (0, 0.0))[1] for p in phases)

    steps = res["steps"]
    rhs = calls("timeloop.rhs", (solve,))
    audit = sum(v[1] for k, v in solve.items() if k.startswith("energy."))
    dt = np.array([d for d, _ in tracer.dt_pairs])
    ratio = np.array([d / a for d, a in tracer.dt_pairs])
    m = {
        "euler.euler_rhs.self_s": self_s("euler.euler_rhs"),
        "euler.hll_fluxes.self_s": self_s("euler.hll_fluxes"),
        "euler.euler_rhs.calls": calls("euler.euler_rhs"),
        "state.velocities.calls_per_rhs": calls("state.velocities", (solve,)) / rhs,
        "state.velocities.self_s": self_s("state.velocities"),
        "geometry.build_geometry.self_s": self_s("geometry.build_geometry"),
        "geometry.layer_thicknesses.calls_per_rhs":
            calls("geometry.layer_thicknesses", (solve,)) / rhs,
        "geometry.layer_thicknesses.self_s": self_s("geometry.layer_thicknesses"),
        "rheology.stress_closure.calls": calls("rheology.stress_closure"),
        "rheology.stress_closure.self_s": self_s("rheology.stress_closure"),
        "rheology.viscous_rhs.calls": calls("rheology.viscous_rhs"),
        "rheology.viscous_rhs.self_s": self_s("rheology.viscous_rhs"),
        "gridops.ddx.calls": calls("gridops.ddx"),
        "gridops.ddx.self_s": self_s("gridops.ddx"),
        "kinematics.reconstruct_w.calls_per_step":
            calls("kinematics.reconstruct_w", (solve,)) / steps,
        "kinematics.reconstruct_w.self_s": self_s("kinematics.reconstruct_w"),
        "energy.audit_self_s": audit,
        "energy.audit_share": audit / res["solve_raw_s"],
        "timeloop.rhs_evals_per_step": rhs / steps,
        "timeloop.rhs.self_s": self_s("timeloop.rhs"),
        "timeloop.stable_dt.self_s": self_s("timeloop.stable_dt"),
        "timeloop.step.self_s": self_s("timeloop.step"),
        "timeloop.run.self_s": self_s("timeloop.run"),
        "timeloop.dt_median": float(np.median(dt)),
        "timeloop.dt_advective_ratio": float(np.median(ratio)),
        "timeloop.make_context.calls": calls("timeloop.make_context"),
        "cli.import_s": res["import_s"],
        "scenario.parse_scenario.self_s": self_s("scenario.parse_scenario", (setup,)),
        "output.snapshot_frame.self_s": self_s("output.snapshot_frame"),
        "output.write_snapshot.self_s": self_s("output.write_snapshot"),
        "output.write_energy_series.self_s": self_s("output.write_energy_series"),
    }
    m["output.bytes_per_s"] = res["output_bytes"] / (
        m["output.write_snapshot.self_s"] + m["output.write_energy_series.self_s"])
    # self time of each module; the runner turns output.self_s into a share
    # of the process wall time
    for layer in TRACED_MODULES:
        m[f"{layer}.self_s"] = sum((v[1] for p in (solve, write)
                                    for k, v in p.items() if k.startswith(layer + ".")), 0.0)
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
