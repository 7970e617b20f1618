#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's median and quartile spread (IQR / median) per workload, the
way acceptance is judged: ten seeds per workload, spread within a third
of the metric's bound.

    python3 perfbench/spread.py [--seeds 1-10] [--seconds S] [--workloads a,b]

Run from the repository root after one build (the first run builds).
Each run's fingerprint line is kept in the output so two sets can be
compared seed by seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            fingerprint = next((l for l in lines if l.startswith("fingerprint ")), "")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {fingerprint}")
            ok &= result["correct"]
            if not result["correct"]:
                print("".join(l + "\n" for l in out.stderr.splitlines() if "fail" in l))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds[name] / 3
            flag = "" if spread <= limit or name == "setup_s" else "  TOO NOISY"
            ok &= not flag
            print(f"  {workload:<18} {name:<12} median {med:<14.6g} spread {spread:6.3f} "
                  f"(limit {limit:.3f}){flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
