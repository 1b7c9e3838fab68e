"""Steadiness check: two sets of untraced runs of every workload.

    python3 perfbench/steady.py --seeds 10 --out report.json

Each of the two sets runs ``perfbench/run.py`` once per workload of
BENCHMARK.json and seed (seeds 1 to ``--seeds``, the same in both sets).
For every end-to-end metric it reports the median, the quartiles and the
spread (quartile distance / median) of each set.  It fails when a run is
not correct, when a spread exceeds the metric's bound in BENCHMARK.json, or
when the second set's median is worse than the first's by more than the
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(spec, workload, seed):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds",
            str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f" {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} not correct:\n"
                           + "\n".join(lines[:-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = range(1, args.seeds + 1)

    runs = {n: [[] for _ in range(SETS)] for n in names}
    for s in range(SETS):
        for seed in seeds:
            for n in names:
                t0 = time.perf_counter()
                runs[n][s].append(run_once(spec, n, seed))
                print(f"set {s + 1} {n} seed {seed} "
                      f"({time.perf_counter() - t0:.0f} s): "
                      + ", ".join(f"{k}={v:.4g}"
                                  for k, v in runs[n][s][-1].items()),
                      flush=True)

    failures = []
    report = {}
    for n in names:
        report[n] = {}
        for metric, m in bounds.items():
            sets = [summarize([r[metric] for r in runs[n][s]])
                    for s in range(SETS)]
            report[n][metric] = sets
            for i, st in enumerate(sets):
                if st["spread"] > m["bound"]:
                    failures.append(f"{n} {metric}: set {i + 1} spread "
                                    f"{st['spread']:.3f} > {m['bound']}")
            sign = 1.0 if m["better"] == "lower" else -1.0
            for i in range(1, len(sets)):
                change = sign * (sets[i]["median"] / sets[0]["median"] - 1.0)
                if change > m["bound"]:
                    failures.append(f"{n} {metric}: set {i + 1} median worse "
                                    f"by {change:.3f} > {m['bound']}")
            print(f"{n:15s} {metric:12s} " + "  ".join(
                f"[{st['q1']:.4g} {st['median']:.4g} {st['q3']:.4g}] "
                f"spread {st['spread']:.3f}" for st in sets)
                + f"  bound {m['bound']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": list(seeds), "workloads": report,
                       "failures": failures}, fh, indent=1)
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
