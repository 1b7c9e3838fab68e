"""prevmap benchmark: the CLI pipeline on a generated workload.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 20 \
        --trace 0

Run from the root of a source checkout.  The workload generator writes a
boundary, an area partition and configs from the seed; ``prevmap simulate``
builds the survey (set-up), then ``fit -> areas -> excursions -> report``
runs as a user runs it, one process per command.  The three phases run in
rounds: simulate SETUP_RUNS times, fit until ``--seconds`` of it are
measured and the post-fit commands until POST_SHARE of that, each at least
MIN_REPEATS times.  Every command
is checked by the correctness gate: exit code, expected files, theta-grid
weights summing to 1, the joint probability of each non-empty excursion
set, and CSV and PGM outputs byte-identical across repeats of the same code
and seed.

With ``--trace 0`` the report holds the end-to-end metrics, medians over
the repeats.  With ``--trace 1`` untraced and traced pipelines alternate;
the traced one runs each command under ``perfbench/tracing.py`` and the
report holds the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object.

Scratch files go to ``.bench_build/perfbench`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

import gate  # noqa: E402  (siblings of this file)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3   # simulate runs per run; setup_s is their median
MIN_REPEATS = 2  # fewest repeats of fit and of the post-fit commands
# The post-fit commands are measured for 0.4 times as long as fit: on
# canonical they take ~4 s against a ~21-30 s fit and are steady after two
# repeats, and a longer target would push the benchmark past its run-time
# budget when the machine runs slow.
POST_SHARE = 0.4

END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "post_s": "s",
                    "pipeline_s": "s", "peak_rss_mb": "MB"}
ACCURACY_KEYS = ("spde_area_rmse", "spde_cover_gap", "bym_area_rmse",
                 "bym_cover_gap")


def code_hash():
    """Digest of the program source and the workload generator, so stored
    output digests are compared only against runs of the same code."""
    h = hashlib.sha256()
    paths = [os.path.join(HERE, "workloads.py")]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, n) for n in sorted(filenames)
                  if n.endswith(".py")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class Tally:
    """Commands attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


class Survey:
    """One simulated survey: runs commands on it as separate processes and
    gates their outputs."""

    def __init__(self, workload, seed, directory, tally):
        self.paths = workloads.WORKLOADS[workload].paths
        self.label = f"{workload} seed {seed}"
        self.sim_config, self.config = workloads.generate(workload, seed,
                                                          directory)
        self.dir = directory
        self.out_dir = os.path.join(directory, "out")
        self.post = ["areas", "excursions", "report"] \
            if "spde" in self.paths else ["report"]
        self.tally = tally
        self.seen = {}
        self.digest_file = os.path.join(
            WORK, "digests", f"{workload}-{seed}-{code_hash()}.json")
        self.stored = {}
        if os.path.exists(self.digest_file):
            with open(self.digest_file) as fh:
                self.stored = json.load(fh)
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.span_files = {}

    def _spawn(self, command, run_id):
        argv = [sys.executable]
        if run_id is None:
            argv += ["-m", "prevmap.cli"]
        else:
            spans = os.path.join(self.dir, "spans",
                                 f"{run_id}-{command}.json")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            self.span_files.setdefault(run_id, []).append(spans)
            argv += [os.path.join(HERE, "tracing.py"), "--run-id", run_id,
                     "--spans", spans]
        argv += [command, "-c",
                 self.sim_config if command == "simulate" else self.config]
        log = os.path.join(self.dir, f"{command}.log")
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0, log

    def _check(self, command, rc, log):
        if rc != 0:
            with open(log) as fh:
                tail = fh.read()[-400:].strip()
            return [f"exit code {rc}: {tail}"]
        names = gate.expected_files(command, self.paths)
        problems = gate.missing_files(self.out_dir, names)
        if problems:
            return problems
        found = gate.digests(self.out_dir, names)
        problems += gate.digest_mismatches(found, self.seen)
        problems += gate.digest_mismatches(found, self.stored)
        # outputs already checked once come back byte-identical or fail above
        if any(n not in self.seen for n in found):
            if command == "fit":
                problems += gate.theta_weight_problems(self.out_dir,
                                                       self.paths)
            if command == "excursions":
                problems += gate.excursion_problems(self.out_dir)
        for n, h in found.items():
            self.seen.setdefault(n, h)
        return problems

    def run(self, command, run_id=None):
        """One gated command; returns (ok, seconds, peak RSS in MB)."""
        rc, seconds, rss, log = self._spawn(command, run_id)
        problems = self._check(command, rc, log)
        self.tally.record(f"{self.label} {command}", problems)
        return not problems, seconds, rss

    def _commands(self, commands, run_id):
        """Run commands in order; returns (total seconds, peak RSS), or None
        once one fails (the rest are counted as failed, not run)."""
        total, rss = 0.0, 0.0
        for i, command in enumerate(commands):
            ok, seconds, peak = self.run(command, run_id)
            if not ok:
                for skipped in commands[i + 1:]:
                    self.tally.record(f"{self.label} {skipped}",
                                      ["not run after an earlier failure"])
                return None
            total += seconds
            rss = max(rss, peak)
        return total, rss

    def pipeline(self, fit_min_s=0.0, post_min_s=0.0, min_repeats=1,
                 setup_runs=0, run_id=None):
        """Rounds of simulate, fit and the post-fit commands.  Each round
        runs simulate while fewer than ``setup_runs`` set-ups are done, fit
        while fewer than ``min_repeats`` fits ran or less than ``fit_min_s``
        seconds of them are measured, and the post-fit commands likewise
        with ``post_min_s``.
        Spreading each phase's repeats over the run keeps a slow spell of
        the machine from falling on the repeats of one phase only.

        With ``setup_runs = 0`` the survey must already be simulated.
        Returns {"setup_s", "fit_s", "post_s": [per repeat], "peak_rss_mb"}
        (peak over fit and post-fit), or None once a command fails.
        """
        keep = set(gate.expected_files("simulate", self.paths))
        if os.path.isdir(self.out_dir):
            for n in os.listdir(self.out_dir):
                if n not in keep and n != "config_resolved.ini":
                    os.remove(os.path.join(self.out_dir, n))
        record = {"setup_s": [], "fit_s": [], "post_s": [],
                  "peak_rss_mb": 0.0}

        min_s = {"fit_s": fit_min_s, "post_s": post_min_s}

        def more(key):
            if key == "setup_s":
                return len(record[key]) < setup_runs
            return (len(record[key]) < min_repeats
                    or sum(record[key]) < min_s[key])

        phases = (("setup_s", ["simulate"]), ("fit_s", ["fit"]),
                  ("post_s", self.post))
        while any(more(key) for key, _ in phases):
            for key, commands in phases:
                if not more(key):
                    continue
                done = self._commands(commands, run_id)
                if done is None:
                    return None
                record[key].append(done[0])
                if key != "setup_s":
                    record["peak_rss_mb"] = max(record["peak_rss_mb"],
                                                done[1])
        return record

    def store_digests(self):
        """Keep this run's digests for later runs of the same code and
        seed, once a run has passed."""
        if self.tally.failed or self.stored:
            return
        os.makedirs(os.path.dirname(self.digest_file), exist_ok=True)
        with open(self.digest_file, "w") as fh:
            json.dump(self.seen, fh, indent=1, sort_keys=True)


def measure(args, survey):
    """Untraced run: end-to-end metrics as medians over repeats."""
    # repeated set-ups must also come out byte-identical
    record = survey.pipeline(fit_min_s=args.seconds,
                             post_min_s=args.seconds * POST_SHARE,
                             min_repeats=MIN_REPEATS, setup_runs=SETUP_RUNS)
    if record is None:
        return {}
    m = {k: statistics.median(record[k])
         for k in ("setup_s", "fit_s", "post_s")}
    m["pipeline_s"] = m["fit_s"] + m["post_s"]
    m["peak_rss_mb"] = record["peak_rss_mb"]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in m.items()}


def measure_traced(args, survey):
    """Traced run: per-layer metrics from the spans of the traced
    pipelines, and the tracing overhead against untraced ones run
    alternately."""
    setup_id = f"{args.workload}-{args.seed}-setup"
    # the untraced simulate gives the reference bytes for the traced one,
    # which feeds the simulate.* metrics
    if not (survey.run("simulate")[0]
            and survey.run("simulate", setup_id)[0]):
        return {}
    start = time.perf_counter()
    untraced, traced, per_run = [], [], []
    while not traced or time.perf_counter() - start < args.seconds:
        run_id = f"{args.workload}-{args.seed}-p{len(traced) + 1}"
        a = survey.pipeline()
        b = survey.pipeline(run_id=run_id) if a else None
        if b is None:
            return {}
        untraced.append(a["fit_s"][0] + a["post_s"][0])
        traced.append(b["fit_s"][0] + b["post_s"][0])
        spans, warns = tracing.load_spans(survey.span_files[setup_id]
                                          + survey.span_files[run_id])
        per_run.append(tracing.layer_metrics(spans, warns))
    out = {k: {"value": statistics.median(r[k] for r in per_run),
               "unit": tracing.unit_of(k)} for k in per_run[0]}
    out["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(untraced) - 1,
        "unit": "ratio"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prevmap", "cli.py")):
        print(f"no program source at {SRC}/prevmap: run from the root of a "
              f"prevmap checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # a terminated run stops the command it is waiting for (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    survey = Survey(args.workload, args.seed, work, tally)
    metrics = (measure_traced if args.trace else measure)(args, survey)
    survey.store_digests()

    # deterministic at a fixed seed
    acc = gate.accuracy(survey.out_dir, survey.paths) if metrics else {}
    if args.trace and metrics:
        for k in ACCURACY_KEYS:
            metrics[f"accuracy.{k}"] = {"value": acc.get(k, 0.0),
                                        "unit": "ratio"}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for k, v in acc.items():
            print(f"  {k} = {v:.6g}")
    print(f"  ops_failed_frac = {tally.failed / max(tally.attempted, 1):.6g}"
          f" ({tally.failed} of {tally.attempted} commands)")
    for p in tally.problems:
        print(f"  FAILED {p}")
    print(json.dumps({"correct": tally.failed == 0 and bool(metrics),
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
