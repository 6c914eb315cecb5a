"""Seeded end-to-end benchmark of the nfareduce command line.

    python3 bench/run.py --workload onecomp --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 1

A run repeats its workload until ``--seconds`` are used up (at least once;
at least one untraced and one traced repetition with ``--trace 1``).  Each
repetition is one fresh interpreter (``worker.py``) that generates the
inputs from the seed, writes them under ``.bench_work/`` and runs the
workload's commands in order through ``nfareduce.cli.main``: a closed loop
with one client.  The run prints every metric with its unit and sample
count, the behaviour digest of the first repetition, and as its last line
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
and the tracing overhead with ``--trace 1``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("onecomp", "tentacles", "bigmodel")
# a run ends well inside the 180 s a benchmark run may take
DEADLINE_S = 170.0


def repetition(name, seed, workdir, traced, timeout):
    """One fresh worker process; returns its record and its wall time."""
    os.makedirs(workdir)
    argv = [sys.executable, WORKER, name, str(seed), workdir]
    spawned = time.monotonic()
    argv.append(repr(spawned))
    if traced:
        argv.append("--trace")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        sys.exit(f"{name}: a repetition ran past the {DEADLINE_S:g} s "
                 "deadline")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"{name}: worker exited with code {proc.returncode}")
    record = json.loads(proc.stdout.splitlines()[-1])
    record["traced"] = traced
    record["duration_s"] = time.monotonic() - spawned
    return record


def run_workload(name, seed, seconds, trace):
    """Repetitions of one workload within the time budget."""
    base = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    start = time.monotonic()
    reps = []
    try:
        while True:
            traced = trace and len(reps) % 2 == 1
            left = DEADLINE_S - (time.monotonic() - start)
            reps.append(repetition(name, seed,
                                   os.path.join(base, f"rep{len(reps)}"),
                                   traced, left))
            elapsed = time.monotonic() - start
            nxt = trace and len(reps) % 2 == 1
            same = [r["duration_s"] for r in reps if r["traced"] == nxt]
            estimate = statistics.median(same or [reps[-1]["duration_s"]])
            if elapsed + estimate > DEADLINE_S:
                break
            if len(reps) >= (2 if trace else 1) and elapsed + estimate > seconds:
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return reps


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_share"):
        return "share"
    if metric.endswith("_per_state"):
        return "calls/state"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def end_to_end(reps):
    """Per end-to-end metric, its samples: one per repetition."""
    samples = {"job_s": [r["job_s"] for r in reps],
               "setup_s": [r["setup_s"] for r in reps],
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    for i in range(len(reps[0]["commands"])):
        samples[f"cmd{i + 1}_s"] = [r["commands"][i]["wall_s"] for r in reps]
    for r in reps:
        kinds = {}
        for c in r["commands"]:
            kinds[c["kind"]] = kinds.get(c["kind"], 0.0) + c["wall_s"]
        for kind, wall in kinds.items():
            samples.setdefault(f"{kind}_s", []).append(wall)
    return samples


def report(name, seed, seconds, trace):
    reps = run_workload(name, seed, seconds, trace)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    commands = [c for r in reps for c in r["commands"]]
    failed = [c for c in commands if c["problems"]]

    kinds = " ".join(c["kind"] for c in reps[0]["commands"])
    print(f"workload={name} seed={seed} repetitions={len(untraced)} untraced"
          f" + {len(traced)} traced; commands: {kinds}")
    samples = end_to_end(untraced)
    # tracing starts after set-up, so every repetition measures it
    samples["setup_s"] = [r["setup_s"] for r in reps]
    for metric, values in samples.items():
        print(f"  {metric} = {statistics.median(values):.6g} {_unit(metric)}"
              f" (median of {len(values)}, range {min(values):.6g}.."
              f"{max(values):.6g})")
    print(f"  ops_failed = {len(failed) / len(commands):.6g} share "
          f"({len(failed)} of {len(commands)} commands attempted)")
    for c in failed:
        print(f"  FAILED {c['kind']}: {'; '.join(c['problems'])}")
    digest = [c["digest"] for c in reps[0]["commands"]]
    for c in reps[0]["commands"]:
        for note in c["digest"].get("notes", ()):
            print(f"  NOTE {c['kind']}: {note} (not counted as failed; "
                  "known defect 2 in bench/README.md)")
    print("  digest " + json.dumps(digest, sort_keys=True))

    if trace:
        layers = {k: statistics.median([r["layers"][k] for r in traced])
                  for k in traced[0]["layers"]}
        traced_job = statistics.median([r["job_s"] for r in traced])
        untraced_job = statistics.median([r["job_s"] for r in untraced])
        layers["trace.traced_job_s"] = traced_job
        layers["trace.untraced_job_s"] = untraced_job
        layers["trace.overhead_s"] = traced_job - untraced_job
        layers["trace.unattributed_s"] = statistics.median(
            [sum(c["wall_s"] - c["self_sum_s"] for c in r["commands"])
             for r in traced])
        for metric, value in layers.items():
            print(f"  {metric} = {value:.6g} {_unit(metric)}")
        print(f"  tracing overhead = {layers['trace.overhead_s']:.6g} s "
              f"({layers['trace.overhead_s'] / untraced_job:.1%} of job_s)")
        metrics = layers
    else:
        metrics = {k: statistics.median(samples[k])
                   for k in ("job_s", "setup_s", "peak_rss_mb")}
    return {"correct": not failed, "attempted": len(commands),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": _unit(k)}
                        for k, v in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "nfareduce",
                                       "__init__.py")):
        sys.exit(f"no nfareduce sources under {ROOT}/src")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: report(n, args.seed, args.seconds, args.trace)
               for n in names}
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))


if __name__ == "__main__":
    main()
