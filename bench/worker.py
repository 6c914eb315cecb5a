"""One repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED WORKDIR SPAWNED [--trace]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, input generation
and file writing.  The commands then run one after another through
``nfareduce.cli.main`` (closed loop, one client, no threads), each timed
and checked.  Prints one JSON object.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nfareduce  # noqa: E402
from nfareduce import cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def call(cmd):
    """Run one command; returns its record so far and its stdout."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(cmd.argv)
        problems = [] if rc == 0 else [f"exit code {rc}"]
    except Exception as exc:  # a traceback is a failed command, not a crash
        rc, problems = None, [f"raised {exc!r}"]
    wall = time.perf_counter() - t0
    return {"kind": cmd.kind, "wall_s": wall, "rc": rc,
            "problems": problems, "digest": {}}, out.getvalue()


def main(argv):
    name, seed, workdir, spawned = argv[:4]
    trace = "--trace" in argv[4:]
    expected = os.path.join(ROOT, "src", "nfareduce")
    if os.path.dirname(os.path.abspath(nfareduce.__file__)) != expected:
        sys.exit(f"nfareduce imported from {nfareduce.__file__}, "
                 f"not from {expected}")
    workload = workloads.WORKLOADS[name](int(seed), workdir)
    setup_s = time.monotonic() - float(spawned)

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.install()
    commands = []
    traced = []
    for cmd in workload.commands:
        first = len(tracer.spans) if tracer else 0
        result, stdout = call(cmd)
        if tracer:
            tracer.settle()
            own = tracer.spans[first:]
            result["self_sum_s"] = sum(s.self_time for s in own)
            traced += own
        if result["rc"] == 0:
            result["problems"], result["digest"] = checks.CHECKS[cmd.kind](
                cmd.info, checks.report_pairs(stdout), workload.corpus)
        commands.append(result)
    record = {
        "setup_s": setup_s,
        "job_s": sum(c["wall_s"] for c in commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "commands": commands,
    }
    if tracer:
        record["layers"] = spans.layer_metrics(traced)
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
