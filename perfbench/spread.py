"""Run-to-run spread of the end-to-end metrics over two sets of seeds.

    python3 perfbench/spread.py --out perfbench/baseline            # run, then report
    python3 perfbench/spread.py --out perfbench/baseline --report   # report only

The two sets run every workload once per seed, alternating run by run (set a
at seed s, then set b at seed s + 100), so that a change in the host's speed
falls on both.  Each run's result file goes to `<out>/set-<a|b>/`.  The
report gives, per workload and metric, each set's median and its
interquartile range as a share of the median (as `statistics.quantiles(v,
n=4)` gives the quartiles), and how far the second median is worse than the
first, next to the metric's bound in `BENCHMARK.json`.
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
SETS = {"a": 0, "b": 100}  # set name -> seed offset


def run_sets(out: Path, workloads, seeds: int, seconds: int) -> None:
    for i in range(1, seeds + 1):
        for wl in workloads:
            for name, offset in SETS.items():
                seed = i + offset
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                       "--out-dir", str(out / f"set-{name}")]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"{wl} set {name} seed {seed}: exit {proc.returncode} {last[0][:120]}",
                      flush=True)


def _values(out: Path, name: str, wl: str) -> dict:
    vals = {}
    for path in sorted((out / f"set-{name}").glob(f"result-{wl}-seed*-trace0.json")):
        res = json.loads(path.read_text())
        if not res["correct"]:
            print(f"warning: {path} is not correct", file=sys.stderr)
        for metric, m in res["metrics"].items():
            vals.setdefault(metric, []).append(m["value"])
    return vals


def report(out: Path, workloads) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print(f"{'workload':<11} {'metric':<16} {'n':>3} {'median a':>12} {'iqr a':>6} "
          f"{'median b':>12} {'iqr b':>6} {'b worse':>8} {'bound':>6}")
    for wl in workloads:
        a, b = _values(out, "a", wl), _values(out, "b", wl)
        for metric, (bound, better) in bounds.items():
            if len(a.get(metric, [])) < 2 or len(b.get(metric, [])) < 2:
                continue
            row = []
            for v in (a[metric], b[metric]):
                q = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                row += [med, (q[2] - q[0]) / med]
            worse = (row[2] - row[0]) / row[0] * (1 if better == "lower" else -1)
            print(f"{wl:<11} {metric:<16} {len(a[metric]):>3} {row[0]:>12.6g} {row[1]:>6.3f} "
                  f"{row[2]:>12.6g} {row[3]:>6.3f} {worse:>8.3f} {bound:>6}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--report", action="store_true", help="only summarise existing results")
    args = parser.parse_args(argv)
    if not args.report:
        run_sets(args.out, args.workloads, args.seeds, spec["run_seconds"])
    report(args.out, args.workloads)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
