"""Command-line front end.

Subcommands: reduce, distance, label, learn, eval.  Reports go to stdout as
key=value lines; structured outputs (automata, models, label tables) are
written to files and are byte-identical across runs on the same inputs.
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


def _emit(pairs):
    for key, value in pairs:
        if isinstance(value, float):
            value = f"{value:.17g}"
        print(f"{key}={value}")


def _write_manifest(args, inputs, config, timings, results):
    manifest = {
        "command": args.raw_argv,
        "inputs": {path: _digest(path) for path in inputs},
        "config": config,
        "timings": timings,
        "results": results,
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
    exact = None
    if args.exact:
        t0 = time.perf_counter()
        try:
            exact = distance(a, report.reduced, p, det_cap=args.det_cap)
            pairs.append(("exact_distance", exact))
        except CapExceededError:
            pairs.append(("exact_distance", "infeasible"))
        pairs.append(("exact_time_s", time.perf_counter() - t0))
    _emit(pairs)
    if args.manifest:
        _write_manifest(
            args, [args.input, args.model],
            {"type": args.type, "label": args.label, "mode": args.mode,
             "param": args.param, "det_cap": args.det_cap},
            {"label_time_s": report.label_time,
             "reduce_time_s": report.reduce_time},
            {"input_states": report.input_size,
             "output_states": report.output_size,
             "error_bound": report.error_bound,
             "exact_distance": exact})
    return EXIT_OK


def cmd_distance(args):
    a1 = _load_nfa(args.first)
    a2 = _load_nfa(args.second)
    p = _load_pa(args.model)
    d = distance(a1, a2, p, det_cap=args.det_cap)
    _emit([("distance", d)])
    if args.manifest:
        _write_manifest(args, [args.first, args.second, args.model],
                        {"det_cap": args.det_cap}, {}, {"distance": d})
    return EXIT_OK


def cmd_label(args):
    a = _load_nfa(args.input)
    p = _load_pa(args.model)
    fn = label_prune if args.type == "prune" else label_selfloop
    labels = fn(a, p, args.label, det_cap=args.det_cap)
    lines = [f"{q}\t{labels[q]:.17g}" for q in range(len(labels))]
    text = "\n".join(lines) + "\n" if lines else ""
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        _write_manifest(args, [args.input, args.model],
                        {"type": args.type, "label": args.label,
                         "det_cap": args.det_cap}, {}, {})
    return EXIT_OK


def cmd_learn(args):
    skeleton = _load_nfa(args.input)
    if args.complete:
        skeleton = complete_dfa(skeleton)
    corpus = _load_corpus(args.corpus, args.format)
    pa = learn_pa(skeleton, corpus)
    _write(args.output, serialize_pa(pa))
    _emit([("corpus_words", len(corpus)), ("model_states", pa.num_states),
           ("output", args.output)])
    if args.manifest:
        _write_manifest(args, [args.input, args.corpus],
                        {"complete": args.complete, "format": args.format},
                        {}, {"model_states": pa.num_states})
    return EXIT_OK


def cmd_eval(args):
    a = _load_nfa(args.first)
    reduced = _load_nfa(args.second)
    sample = _load_corpus(args.sample, args.format)
    mismatches, total, ratio = traffic_error(a, reduced, sample)
    _emit([("mismatches", mismatches), ("total", total), ("ratio", ratio)])
    if args.manifest:
        _write_manifest(args, [args.first, args.second, args.sample],
                        {"format": args.format}, {},
                        {"mismatches": mismatches, "total": total,
                         "ratio": ratio})
    return EXIT_OK


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
    sub.add_argument("--manifest", help="write a JSON run manifest here")


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
    learn_p.add_argument("--manifest", help="write a JSON run manifest here")
    learn_p.set_defaults(func=cmd_learn)

    eval_p = subs.add_parser("eval", help="empirical traffic error of a "
                                          "reduced automaton")
    eval_p.add_argument("first", help="original FA file")
    eval_p.add_argument("second", help="reduced FA file")
    eval_p.add_argument("--sample", required=True, help="sample words file")
    eval_p.add_argument("--format", choices=("text", "bin"), default="text")
    eval_p.add_argument("--manifest", help="write a JSON run manifest here")
    eval_p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
