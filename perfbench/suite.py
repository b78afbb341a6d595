"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py [--runs 10] [--first-seed 0] [--trace 0]
        [--workloads cover-q3k4,exact-q5k4,structure-q37] [--out BENCH.json]

Each run is one ``run.py`` subprocess with its own seed. For every metric
the table gives its unit, median, quartiles and spread (the distance
between the quartiles over the median); for end-to-end metrics it also
gives the bound from BENCHMARK.json and whether the spread is under a
third of it. Per-command latencies, family sizes and failed commands come
from each run's full record. ``--out`` writes every record and the
summary as one JSON file, e.g. a committed ``BENCH_<n>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORK, WORKLOADS


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    work = WORK / "suite"
    work.mkdir(parents=True, exist_ok=True)
    report = {"runs": [], "summary": {}}
    ok = True
    try:
        for name in args.workloads.split(","):
            records = []
            for seed in range(args.first_seed, args.first_seed + args.runs):
                rec_path = work / f"{name}-{seed}.json"
                proc = subprocess.run(
                    [sys.executable, str(ROOT / "perfbench" / "run.py"),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]),
                     "--trace", str(args.trace), "--out", str(rec_path)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                records.append(json.loads(rec_path.read_text()))
                ok &= result["correct"]
                print(f"{name} seed={seed} correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      flush=True)
            report["runs"].extend(records)
            series = {key: [r["metrics"][key]["value"] for r in records]
                      for key in records[0]["metrics"]}
            for r in records:
                for p in r.get("passes", []):
                    for key, v in {**p["latency_s"], **p}.items():
                        if key != "latency_s":
                            series.setdefault(key, []).append(v)
            print(f"\n{name} ({args.runs} runs)")
            print(f"{'metric':44} {'unit':6} {'median':>12} {'q1':>12} "
                  f"{'q3':>12} {'spread':>8}")
            summary = {}
            for key, values in series.items():
                s = summarise(values)
                unit = (records[0]["metrics"][key]["unit"]
                        if key in records[0]["metrics"]
                        else "s" if key.endswith("_s") else "count")
                line = (f"{key:44} {unit:6} {s['median']:12.6g} "
                        f"{s['q1']:12.6g} {s['q3']:12.6g} "
                        f"{s['spread']:8.4f}")
                if key in bounds and key != "setup_s":
                    steady = s["spread"] < bounds[key] / 3
                    ok &= steady
                    line += (f"  bound {bounds[key]}"
                             f" {'steady' if steady else 'NOT STEADY'}")
                print(line)
                summary[key] = {"unit": unit, **s}
            failed = sum(r["failed"] for r in records)
            print(f"failed_ops = {failed} / "
                  f"{sum(r['attempted'] for r in records)}")
            report["summary"][name] = summary
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
