"""Command-line front end.

Subcommands: reduce, distance, label, learn, eval.  Each command returns its
input files and its report; the report goes to stdout as key=value lines
(except for ``label`` without ``--output``, whose stdout is its TSV) and,
with ``--manifest``, into a JSON run manifest.  Structured outputs
(automata, models, label tables) are written to files and are
byte-identical across runs on the same inputs.
Exit codes: 0 ok, 2 input error, 3 resource cap exceeded.
"""

import argparse
import hashlib
import json
import math
import sys
import time

from .errors import CapExceededError
from .formats import (parse_nfa, parse_pa, read_corpus_bin, read_corpus_text,
                      serialize_nfa, serialize_pa)
from .labels import label_prune, label_selfloop
from .nfa import DEFAULT_DET_CAP
from .reduction import (ReductionConfig, distance, greedy_error_driven,
                        greedy_size_driven)
from .traffic import complete_dfa, learn_pa, traffic_error

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3

# run options; a manifest's config holds those that its command takes
RUN_OPTIONS = ("type", "label", "mode", "param", "exact", "det_cap",
               "complete", "format")


def _read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _load_nfa(path):
    return parse_nfa(_read(path), name=path)


def _load_pa(path):
    return parse_pa(_read(path), name=path)


def _load_corpus(path, fmt):
    if fmt == "bin":
        with open(path, "rb") as f:
            return read_corpus_bin(f.read())
    return read_corpus_text(_read(path))


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _write_manifest(args, inputs, pairs):
    timings = {key: value for key, value in pairs if key.endswith("_time_s")}
    manifest = {
        "command": args.raw_argv,
        "inputs": {path: _digest(path) for path in inputs},
        "config": {key: getattr(args, key) for key in RUN_OPTIONS
                   if hasattr(args, key)},
        "timings": timings,
        "results": {key: value for key, value in pairs if key not in timings},
    }
    _write(args.manifest, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_reduce(args):
    a = _load_nfa(args.input)
    p = _load_pa(args.model)
    param = args.param
    if args.mode == "size" and 0.0 < param < 1.0:
        # a ratio of the input size; ReductionConfig checks every other value
        param = max(1, math.ceil(param * a.num_states))
    cfg = ReductionConfig(kind=args.type, label_variant=args.label,
                          mode=args.mode, param=param)
    run = greedy_size_driven if args.mode == "size" else greedy_error_driven
    report = run(a, p, cfg, det_cap=args.det_cap)

    if args.output:
        _write(args.output, serialize_nfa(report.reduced))
    pairs = [
        ("input_states", report.input_size),
        ("output_states", report.output_size),
        ("removed_set_size", len(report.chosen_set)),
        ("error_bound", report.error_bound),
        ("raw_label_sum", report.raw_label_sum),
        ("label_time_s", report.label_time),
        ("reduce_time_s", report.reduce_time),
    ]
    if args.exact:
        t0 = time.perf_counter()
        try:
            exact = distance(a, report.reduced, p, det_cap=args.det_cap)
        except CapExceededError:
            exact = "infeasible"
        pairs += [("exact_distance", exact),
                  ("exact_time_s", time.perf_counter() - t0)]
    return [args.input, args.model], pairs


def cmd_distance(args):
    a1 = _load_nfa(args.first)
    a2 = _load_nfa(args.second)
    p = _load_pa(args.model)
    d = distance(a1, a2, p, det_cap=args.det_cap)
    return [args.first, args.second, args.model], [("distance", d)]


def cmd_label(args):
    a = _load_nfa(args.input)
    p = _load_pa(args.model)
    fn = label_prune if args.type == "prune" else label_selfloop
    t0 = time.perf_counter()
    labels = fn(a, p, args.label, det_cap=args.det_cap)
    label_time = time.perf_counter() - t0
    lines = [f"{q}\t{labels[q]:.17g}" for q in range(len(labels))]
    text = "\n".join(lines) + "\n" if lines else ""
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return [args.input, args.model], [("states", len(labels)),
                                      ("label_time_s", label_time)]


def cmd_learn(args):
    skeleton = _load_nfa(args.input)
    if args.complete:
        skeleton = complete_dfa(skeleton)
    corpus = _load_corpus(args.corpus, args.format)
    pa = learn_pa(skeleton, corpus)
    _write(args.output, serialize_pa(pa))
    return [args.input, args.corpus], [("corpus_words", len(corpus)),
                                       ("model_states", pa.num_states),
                                       ("output", args.output)]


def cmd_eval(args):
    a = _load_nfa(args.first)
    reduced = _load_nfa(args.second)
    sample = _load_corpus(args.sample, args.format)
    mismatches, total, ratio = traffic_error(a, reduced, sample)
    return [args.first, args.second, args.sample], [
        ("mismatches", mismatches), ("total", total), ("ratio", ratio)]


def _det_cap(text):
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {cap}")
    return cap


def _add_shared(sub):
    sub.add_argument("--model", required=True, help="PA model file")
    sub.add_argument("--det-cap", type=_det_cap, default=DEFAULT_DET_CAP,
                     help="determinization state cap (>= 1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nfareduce",
        description="Approximate NFA reduction with certified error bounds "
                    "under a probabilistic traffic model.")
    subs = parser.add_subparsers(dest="command", required=True)

    reduce_p = subs.add_parser("reduce", help="greedy approximate reduction")
    reduce_p.add_argument("--input", required=True, help="FA file to reduce")
    reduce_p.add_argument("--output", help="write the reduced FA here")
    reduce_p.add_argument("--type", choices=("prune", "selfloop"),
                          required=True)
    reduce_p.add_argument("--label", type=int, choices=(1, 2, 3), required=True)
    reduce_p.add_argument("--mode", choices=("size", "error"), required=True)
    reduce_p.add_argument("--param", type=float, required=True,
                          help="size mode: integer bound n (>= 1) or ratio "
                               "in (0,1); error mode: budget in [0,1]")
    reduce_p.add_argument("--exact", action="store_true",
                          help="also compute the exact distance")
    _add_shared(reduce_p)
    reduce_p.set_defaults(func=cmd_reduce)

    dist_p = subs.add_parser("distance", help="probabilistic distance")
    dist_p.add_argument("first", help="FA file")
    dist_p.add_argument("second", help="FA file")
    _add_shared(dist_p)
    dist_p.set_defaults(func=cmd_distance)

    label_p = subs.add_parser("label", help="per-state error labels as TSV")
    label_p.add_argument("--input", required=True, help="FA file")
    label_p.add_argument("--output", help="TSV output (default stdout)")
    label_p.add_argument("--type", choices=("prune", "selfloop"),
                         required=True)
    label_p.add_argument("--label", type=int, choices=(1, 2, 3), required=True)
    _add_shared(label_p)
    label_p.set_defaults(func=cmd_label)

    learn_p = subs.add_parser("learn", help="learn a PA from a DFA skeleton "
                                            "and a corpus")
    learn_p.add_argument("--input", required=True, help="DFA skeleton FA file")
    learn_p.add_argument("--corpus", required=True, help="corpus file")
    learn_p.add_argument("--output", required=True, help="PA output file")
    learn_p.add_argument("--format", choices=("text", "bin"), default="text")
    learn_p.add_argument("--complete", action="store_true",
                         help="complete the skeleton with a sink first")
    learn_p.set_defaults(func=cmd_learn)

    eval_p = subs.add_parser("eval", help="empirical traffic error of a "
                                          "reduced automaton")
    eval_p.add_argument("first", help="original FA file")
    eval_p.add_argument("second", help="reduced FA file")
    eval_p.add_argument("--sample", required=True, help="sample words file")
    eval_p.add_argument("--format", choices=("text", "bin"), default="text")
    eval_p.set_defaults(func=cmd_eval)

    for sub in subs.choices.values():
        sub.add_argument("--manifest", help="write a JSON run manifest here")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        inputs, pairs = args.func(args)
        # label without --output writes its TSV to stdout, which stays the
        # TSV alone: its report goes to the manifest only
        if args.func is not cmd_label or args.output:
            for key, value in pairs:
                print(f"{key}={value:.17g}" if isinstance(value, float)
                      else f"{key}={value}")
        if args.manifest:
            _write_manifest(args, inputs, pairs)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
