"""Benchmark for the anick library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Users run anick as a batch job: one caller, one computation at a time.
So a run is a closed loop with one client. It starts a fresh Python child
(perfbench/workload.py) for each repetition, waits for it, and starts the
next, until S seconds have passed. Each child builds its inputs from the
files in perfbench/inputs, times set-up and solve, checks every output
against perfbench/goldens after its timed region, and reports peak RSS.
Before the loop, the CLI command of each workload that runs is run once,
untimed, and the sha256 of its stdout is compared with
perfbench/goldens/cli.json.

Each child first times a fixed pure-Python reference job, before it
imports anick. With --trace 0 the run reports the end-to-end metrics:

- wall_rel: the median over children of the solve time after set-up
  (wall_s) divided by the time of the same child's reference job. On a
  shared 2-core machine wall_s alone drifts by up to 40% within minutes;
  the ratio cancels much of that drift, so runs made at different times
  compare. wall_s itself is printed and recorded too;
- setup_s: median set-up time, in seconds;
- peak_rss_mib: median peak RSS of a child.

With --trace 1 each round is one traced and one untraced child of every
workload, whichever workload is named, since each workload runs only
some layers. The run reports, per workload, the median per-layer self
times and counts of the traced children, under names that start with the
workload's name. It prints the tracing overhead, traced minus untraced
median wall_s. The last line of stdout is one JSON object; a record with
metadata, every sample and the spans of one traced child per workload
goes to perfbench/results/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEADLINE_S = 150  # start no child after this, so that a run ends within 180 s

CLI_ARGS = {
    "s3_q_verify": ["verify", "perfbench/inputs/s3_q.json", "--degree", "9"],
    "s3_gf3_diagnose": ["diagnose", "perfbench/inputs/s3_gf3.json",
                        "--degree", "9"],
    "xyz_rewrite": ["chains", "perfbench/inputs/xyz.json", "--complete",
                    "--max-degree", "8", "--degree", "5"],
}
WORKLOADS = tuple(CLI_ARGS)

END_TO_END = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mib": "MiB"}
# the layers each workload runs; a traced run reports each as WORKLOAD.NAME
COMMON_LAYERS = [("anick.import_s", "s"),
                 ("groebner.parse_s", "s"),
                 ("groebner.check_s", "s"),
                 ("groebner.overlaps", "count"),
                 ("chains.graph_s", "s"),
                 ("chains.graph_edges", "count"),
                 ("chains.enumerate_s", "s"),
                 ("chains.count", "count"),
                 ("trace.uncovered_pct", "%")]
S3_LAYERS = (COMMON_LAYERS
             + [("resolution.differential_s.d%d" % n, "s")
                for n in range(1, 12)]
             + [("resolution.terms.d%d" % n, "count") for n in range(1, 12)])
LAYERS = {
    "s3_q_verify": S3_LAYERS + [("resolution.verify_s", "s")],
    "s3_gf3_diagnose": S3_LAYERS + [("resolution.homotopy_s", "s"),
                                    ("resolution.homotopy_calls", "count"),
                                    ("resolution.diagnose_s", "s")],
    "xyz_rewrite": COMMON_LAYERS + [("groebner.complete_s", "s"),
                                    ("groebner.rules", "count"),
                                    ("groebner.normal_form_s", "s"),
                                    ("groebner.normal_form_terms", "count"),
                                    ("groebner.automaton_s", "s")],
}
PER_LAYER = {"%s.%s" % (workload, name): unit
             for workload, layers in LAYERS.items() for name, unit in layers}


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work
    tree. The ceiling keeps git from searching the directories above."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(seed):
    try:
        with open("/proc/loadavg") as fh:
            loadavg = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        loadavg = None
    return {"python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": loadavg,
            "git_commit": git_commit(),
            "seed": seed}


def check_cli(workloads):
    """Failures of the workloads' CLI commands: a non-zero exit, or stdout
    whose sha256 differs from the golden."""
    with open(HERE / "goldens" / "cli.json") as fh:
        goldens = json.load(fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    failures = []
    for workload in workloads:
        argv = [sys.executable, "-m", "anick.cli"] + CLI_ARGS[workload]
        try:
            out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                 timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            failures.append("cli %s: timed out" % workload)
            continue
        digest = hashlib.sha256(out.stdout).hexdigest()
        if out.returncode != 0 or digest != goldens.get(workload):
            failures.append("cli %s: exit %d, stdout sha256 %s"
                            % (workload, out.returncode, digest))
    return failures


def run_rounds(jobs, seed, seconds, min_rounds, t_begin):
    """The closed loop: run the children that `jobs` names, as (mode,
    workload) pairs, one after another, round after round. After
    min_rounds, start a round only if it should end within `seconds`."""
    samples, rounds = [], []
    t_loop = time.monotonic()
    while len(rounds) < min_rounds or (
            time.monotonic() - t_loop + statistics.median(rounds) <= seconds):
        t_round = time.monotonic()
        for mode, workload in jobs:
            left = DEADLINE_S - (time.monotonic() - t_begin)
            if left <= 0:
                return samples
            argv = [sys.executable, str(HERE / "workload.py"), mode,
                    workload, str(seed)]
            out = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                 text=True, timeout=left + 20)
            if out.returncode != 0:
                raise RuntimeError("workload child exited %d: %s"
                                   % (out.returncode,
                                      out.stderr.strip()[-2000:]))
            sample = json.loads(out.stdout.splitlines()[-1])
            sample.update(mode=mode, workload=workload)
            samples.append(sample)
        rounds.append(time.monotonic() - t_round)
    return samples


def layer_metrics(sample):
    """Per-layer self times from one traced child's spans, and its counts.

    A span's self time is its duration minus that of its direct children.
    The span "resolution.differential.d3" gives the metric
    "resolution.differential_s.d3".
    """
    spans = sample["spans"]
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            self_time[parent] -= end - start
    out = {}
    for (name, _, _, _), t in zip(spans, self_time):
        parts = name.split(".")
        parts[1] += "_s"
        metric = ".".join(parts)
        out[metric] = out.get(metric, 0.0) + t
    out.update(sample["counts"])
    covered = sum(end - start for _, start, end, parent in spans
                  if parent is None and start >= sample["solve_start"])
    out["trace.uncovered_pct"] = 100.0 * (1.0 - covered / sample["wall_s"])
    return out


def median_of(samples, key, workload=None, mode="run"):
    return statistics.median(s[key] for s in samples if s["mode"] == mode
                             and workload in (None, s["workload"]))


def untraced_metrics(samples):
    return {"wall_rel": statistics.median(s["wall_s"] / s["reference_s"]
                                          for s in samples),
            "setup_s": median_of(samples, "setup_s"),
            "peak_rss_mib": median_of(samples, "peak_rss_mib")}


def traced_metrics(samples):
    metrics = {}
    for workload, layers in LAYERS.items():
        per_child = [layer_metrics(s) for s in samples
                     if s["workload"] == workload and s["mode"] == "trace"]
        for name, _ in layers:
            # a child that failed may lack a layer; the result counts the
            # failure. median_low keeps counts whole: it returns a sample
            metrics["%s.%s" % (workload, name)] = statistics.median_low(
                m.get(name, 0) for m in per_child)
    return metrics


def run_workload(workload, seed, seconds, trace):
    t_begin = time.monotonic()
    cli_workloads = WORKLOADS if trace else (workload,)
    cli_failures = check_cli(cli_workloads)
    if trace:
        jobs = [(mode, w) for w in WORKLOADS for mode in ("trace", "run")]
        samples = run_rounds(jobs, seed, seconds, 1, t_begin)
        metrics, units = traced_metrics(samples), PER_LAYER
    else:
        samples = run_rounds([("run", workload)], seed, seconds, 3, t_begin)
        metrics, units = untraced_metrics(samples), END_TO_END
    attempted = len(cli_workloads) + sum(s["attempted"] for s in samples)
    failed = len(cli_failures) + sum(s["failed"] for s in samples)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "wordops_backend": sorted({str(s["backend"]) for s in samples}),
              "result": result,
              "failures": cli_failures + [f for s in samples
                                          for f in s["failures"]],
              "samples": [{k: v for k, v in s.items() if k != "spans"}
                          for s in samples],
              "spans": {s["workload"]: s["spans"] for s in samples
                        if s["mode"] == "trace"}}
    return result, record


def report(workload, seed, result, record):
    samples = record["samples"]
    print("workload %s  seed %d  trace %d  children %d  wordops backend %s"
          % (workload, seed, record["trace"], len(samples),
             ",".join(record["wordops_backend"])))
    for name, m in result["metrics"].items():
        value = m["value"]
        text = "%.6f" % value if isinstance(value, float) else str(value)
        print("  %-48s %14s %s" % (name, text, m["unit"]))
    if record["trace"]:
        for w in WORKLOADS:
            print("  %-48s %14.6f s"
                  % (w + ".trace.overhead_s",
                     median_of(samples, "wall_s", w, "trace")
                     - median_of(samples, "wall_s", w)))
    else:
        for name in ("wall_s", "reference_s"):
            print("  %-48s %14.6f s (median of %d)"
                  % (name, median_of(samples, name), len(samples)))
    print("  %-48s %14.6f ratio (%d of %d checks failed)"
          % ("error_rate", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))
    for failure in record["failures"][:10]:
        print("  failure: %s" % failure)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "anick" / "__init__.py").is_file():
        print("error: no anick sources at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    meta = metadata(args.seed)
    print("meta: %s" % json.dumps(meta, sort_keys=True))
    # a traced run covers every workload already
    workloads = (WORKLOADS if args.workload == "all" and not args.trace
                 else (args.workload,))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    RESULTS.mkdir(exist_ok=True)
    for workload in workloads:
        result, record = run_workload(workload, args.seed, args.seconds,
                                      args.trace)
        record["meta"] = meta
        path = RESULTS / ("%s-seed%d-trace%d.json"
                          % (workload, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
        report(workload, args.seed, result, record)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, m in result["metrics"].items():
            total["metrics"][prefix + name] = m
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
