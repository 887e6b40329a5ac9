"""Command-line front end.

    layerflow run <config>     integrate a scenario and write CSV output
    layerflow check <config>   parse and validate a config file
    layerflow verify           run the built-in acceptance suite

Exit codes: 0 on success, 1 for configuration or usage problems (and
failed acceptance checks), 2 when the solver aborts at runtime.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional

from .errors import ConfigError, SolverAbort
from .output import snapshot_frame, write_energy_series, write_snapshot
from .scenario import parse_scenario
# make_context and run are unused here but stay exported: perfbench/child.py calls them
from .timeloop import RunResult, accepted_steps, make_context, run  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for solver aborts
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_scenario(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}"])
    return parse_scenario(text)


def _cmd_run(args) -> int:
    scn = _load_scenario(args.config)
    out_dir = args.output or scn.output.directory
    rows, n_frames, wall0 = [], 0, time.perf_counter()
    try:
        os.makedirs(out_dir, exist_ok=True)
        try:
            for step_no, (row, frame) in enumerate(accepted_steps(scn)):
                rows.append(row)
                if frame is not None:
                    t, diag, final = frame
                    write_snapshot(os.path.join(out_dir, f"snapshot_{n_frames:04d}.csv"),
                                   snapshot_frame(t, final.H, diag, scn))
                    n_frames += 1
                if args.progress and step_no and step_no % args.progress == 0:
                    print(f"step={step_no} t={row[0]:.6g} dt={row[0] - rows[-2][0]:.3e} "
                          f"mass={row[4]:.12g} energy={row[1]:.12g}", file=sys.stderr)
        finally:
            if rows:  # an aborted run, too, leaves the rows it accepted
                result = RunResult.collect(rows, [], final, wall0)
                write_energy_series(os.path.join(out_dir, "energy.csv"), result)
    except OSError as exc:
        raise ConfigError([f"cannot write {exc.filename or out_dir}: {exc.strerror}"])
    s = result.summary
    print(f"finished: {s['steps']} steps to t={s['t_end']:.6g} "
          f"in {s['wall_time']:.2f}s")
    print(f"mass drift {s['mass_drift']:.3e}, energy change "
          f"{s['energy_change']:.6e}, min depth {s['min_depth']:.3e}")
    print(f"wrote {n_frames} snapshots and energy.csv to {out_dir}")
    return EXIT_OK


def _cmd_check(args) -> int:
    scn = _load_scenario(args.config)
    print(f"ok: {args.config} ({scn.mesh.n_cells} cells, {scn.layers.n} layers)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # imported here: no other command needs the suite
    from .acceptance import ALL_CRITERIA, run_acceptance
    ids = None
    if args.criteria:
        try:
            ids = [int(v) for v in args.criteria.split(",")]
        except ValueError:
            raise ConfigError([f"bad criteria list {args.criteria!r}"])
        known = [cid for cid, _ in ALL_CRITERIA]
        if not set(ids) <= set(known):
            raise ConfigError([f"criteria ids must be among {known}"])
    results = run_acceptance(ids)
    for res in results:
        print(res.line())
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return EXIT_OK if n_pass == len(results) else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="layerflow",
                     description="layered free-surface flow solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario config")
    p_run.add_argument("config", help="path to a scenario config file")
    p_run.add_argument("--output", help="output directory (overrides config)")
    p_run.add_argument("--progress", type=int, default=0, metavar="N",
                       help="print progress every N steps")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="validate a scenario config")
    p_check.add_argument("config", help="path to a scenario config file")
    p_check.set_defaults(fn=_cmd_check)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--criteria", help="comma-separated ids, e.g. 1,4,9")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
