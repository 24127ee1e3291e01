#!/usr/bin/env python3
"""Checks of the serving benchmark itself (not of the program).

    python3 perfbench/check.py spread --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]
    python3 perfbench/check.py selfcheck [--seconds S]

spread: runs one workload on each seed and prints, per metric, the ten
values' median and quartile spread (Q3 - Q1) / median, next to the
metric's bound in BENCHMARK.json; a spread above a third of the bound
is flagged.

selfcheck: a short smoke run of every workload.  Same seed twice must
give the same fingerprint (input hash, op counts, space, cache counts,
live COUNT tables); another seed must change the inputs; every run must
be correct and print exactly the metric names and units BENCHMARK.json
lists, untraced and traced.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout}\n{out.stderr}")
    fp = next((json.loads(line[len("fingerprint "):]) for line in lines
               if line.startswith("fingerprint ")), None)
    print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s wall",
          file=sys.stderr, flush=True)
    return json.loads(lines[-1]), fp


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args):
    s = spec()
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in s[kind]}
    values = {name: [] for name in bounds}
    for seed in seeds_of(args.seeds):
        res, _ = run(args.workload, seed, args.seconds, args.trace)
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={res['metrics'][n]['value']:.4g}" for n in bounds),
            flush=True)
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        share = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds[name]
        flag = ""
        if bound is not None:
            worst = max(worst, share / bound)
            flag = "  <-- above a third of the bound" if share > bound / 3 else ""
        print(f"{name:32s} median {med:14.4f}  spread {share:7.4f}"
              f"  bound {bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")


def selfcheck(args):
    s = spec()
    ok = True

    def expect(cond, msg):
        nonlocal ok
        if not cond:
            ok = False
            print("FAIL:", msg)

    for w in (w["name"] for w in s["workloads"]):
        a, fa = run(w, 7, args.seconds, 0)
        b, fb = run(w, 7, args.seconds, 0)
        c, fc = run(w, 8, args.seconds, 0)
        t, _ = run(w, 7, args.seconds, 1)
        for res, kind in ((a, "end_to_end"), (t, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[kind]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            expect(got == want, f"{w} {kind}: metric names or units differ")
            expect(res["correct"] and res["failed"] == 0, f"{w} {kind}: incorrect")
        expect(fa == fb, f"{w}: same seed, different fingerprint {fa} {fb}")
        expect(fa["inputs"] != fc["inputs"], f"{w}: another seed, same inputs")
        print(f"{w}: fingerprint {fa}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    sp.add_argument("--trace", type=int, default=0)
    sc = sub.add_parser("selfcheck")
    sc.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()
    return spread(args) if args.cmd == "spread" else selfcheck(args)


if __name__ == "__main__":
    sys.exit(main())
