"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--save f.json] [--against g.json]

Runs `run.py --trace 0 --seconds <run_seconds>` once per seed and per
workload of BENCHMARK.json, seed by seed with the workloads interleaved,
so a slow window on the host hits every workload rather than one.  For
each workload and metric it prints the median, the quartiles
(`statistics.quantiles(n=4)`) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json; a spread above a
third of the bound is flagged.  `--save` keeps the values; `--against`
compares the medians with those of a saved set: a flagged row got worse
by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads, seeds, seconds) -> dict:
    """{workload: {metric: [value per seed]}} from one run per seed."""
    out: dict = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{w} seed {seed} failed its correctness gate:\n{proc.stdout}")
            for name, m in res["metrics"].items():
                out[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
    return out


def report(data: dict, bench: dict, against: dict | None) -> bool:
    """Print the table; False if any spread or regression is over its limit."""
    ok = True
    print(f"{'workload':16s} {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}  verdict")
    for m in bench["end_to_end"]:
        for w, metrics in data.items():
            vals = metrics[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flags, note = [], ""
            if spread > m["bound"] / 3:
                flags.append("SPREAD>bound/3")
            if against is not None:
                base = statistics.median(against[w][m["name"]])
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                note = f"vs base {worse:+.3f}"
                if worse > m["bound"]:
                    flags.append("REGRESSED")
            ok = ok and not flags
            print(f"{w:16s} {m['name']:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.3f}  {note} {' '.join(flags)}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--save", help="write the collected values to this JSON file")
    p.add_argument("--against", help="saved set to compare the medians with")
    args = p.parse_args()
    data = collect([w["name"] for w in bench["workloads"]], _seeds(args.seeds),
                   bench["run_seconds"])
    if args.save:
        Path(args.save).write_text(json.dumps(data, indent=1))
    against = json.loads(Path(args.against).read_text()) if args.against else None
    return 0 if report(data, bench, against) else 1


if __name__ == "__main__":
    sys.exit(main())
