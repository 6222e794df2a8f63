"""Run every workload over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 1-10 [--workloads certify,...] [--trace]

Runs ``bench/run.py`` once per (workload, seed), one process at a time,
and prints per workload and metric the median, the quartiles and the
quartile distance as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  For end-to-end metrics it also prints the raw
(unscaled) median and spread, read from the run's result file.  The summary is also written to
``bench/out/sweep-<first seed>-<last seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def quartiles(vals: list[float]) -> dict:
    median = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        raws: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        walls, failed, attempted = [], 0, 0
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(int(args.trace))]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            saved = json.loads((BENCH / "out" / (
                f"result-{workload}-seed{seed}-trace{int(args.trace)}.json")).read_text())
            for name, raw in saved["raw"].items():
                raws.setdefault(name, []).append(raw["value"])
        rows = {}
        print(f"{workload}: {len(args.seeds)} runs, {attempted} ops, {failed} failed, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        for m in metrics:
            rows[m["name"]] = row = quartiles(values[m["name"]])
            bound = f"  bound {m['bound']:.2f}" if "bound" in m else ""
            print(f"  {m['name']:40s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g}"
                  f" q3 {row['q3']:<12.6g} spread {row['spread']:6.3f}{bound}")
            if raws.get(m["name"]):
                row["raw"] = raw = quartiles(raws[m["name"]])
                print(f"  {'  raw':40s} median {raw['median']:<12.6g} spread {raw['spread']:6.3f}")
        summary[workload] = {
            "attempted": attempted, "failed": failed, "wall_s": walls, "metrics": rows,
            "slowdowns": {name: quartiles(v) for name, v in raws.items() if name not in rows},
        }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    name = f"sweep-{args.seeds[0]}-{args.seeds[-1]}{'-trace' if args.trace else ''}.json"
    (out / name).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
