"""The benchmark's workloads: seeded inputs written to files, and the CLI
commands run on them in order.

Each workload function takes the seed and a directory, writes its inputs
there and returns a ``Workload``.  The shape of the inputs is fixed (rule
and chain lengths, where classes and repeats go in kind and number); the
seed draws only their contents.  So every seed costs about the same, and
the spread between seeded runs is mostly the host's.
"""

import os
import random
from dataclasses import dataclass, field

import generators as gen


@dataclass
class Command:
    """One CLI call: ``argv`` for ``nfareduce.cli.main``; ``kind`` is the
    subcommand, which picks the output check in ``checks.py``; ``info``
    holds what that check needs."""

    kind: str
    argv: list
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    commands: list
    corpus: list  # witness words: the model was learned from them


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as f:
        f.write(data)
    return path


def onecomp(seed, workdir):
    """One weakly connected component: 8 Sigma*-prefixed rules of 8-10
    bytes (a digit class, a letter class and one x{1,2} repeat each, 79
    states) sharing the initial state.

    Why: with a single component every label is a full determinize ->
    PA-product -> dense-solve pipeline on the whole rule set, and the
    error-mode command runs the O(n^2.4) greedy with repeated
    minimization.  Faster langprob, determinization, labelling or greedy
    code should move this workload most.
    """
    rng = random.Random(f"onecomp:{seed}")
    # one rule leads with its repeat: the per-state languages through it
    # are ambiguous, so their probability needs a determinization
    rules = [gen.make_rule(rng, 8, class_at=(2, 6), repeat=0)]
    rules += [gen.make_rule(rng, length, class_at=(1, length - 2),
                            repeat=length // 2)
              for length in (8, 8, 8, 9, 9, 10, 10)]
    literals = [gen.rule_literal(rng, r) for r in rules for _ in range(4)]
    corpus = gen.text_corpus(rng, literals, 1500, 20, 60, 0.05)
    return _labelled_workload(workdir, gen.rule_set(rules), corpus, [
        ("reduce", ["--type", "prune", "--label", "2", "--mode", "error",
                    "--param", "1e-16", "--exact"]),
        ("reduce", ["--type", "prune", "--label", "3", "--mode", "size",
                    "--param", "0.5"]),
        ("reduce", ["--type", "selfloop", "--label", "1", "--mode", "size",
                    "--param", "0.5"]),
    ])


def tentacles(seed, workdir):
    """40 disjoint byte chains of 5-10 states: 340 states, 40 components.

    Why: the same label layer as onecomp, but on many tiny components, so
    per-component set-up dominates and every solve is tiny.  A change that
    adds per-component cost (say, building array or symbol-class tables)
    shows here as a loss while onecomp gains.
    """
    rng = random.Random(f"tentacles:{seed}")
    automaton, words = gen.tentacles(rng, [5, 6, 7, 8, 9, 10] * 6
                                     + [7, 8, 7, 8])
    corpus = gen.text_corpus(rng, words, 1500, 0, 30, 0.05)
    # a share of the corpus is exactly a chain word, so chains are matched
    corpus += [rng.choice(words) for _ in range(150)]
    return _labelled_workload(workdir, automaton, corpus, [
        ("label", ["--type", "prune", "--label", "3"]),
        ("label", ["--type", "selfloop", "--label", "2"]),
        ("reduce", ["--type", "selfloop", "--label", "3", "--mode", "error",
                    "--param", "0.01"]),
    ])


def _labelled_workload(workdir, automaton, corpus, steps):
    rules = _write(os.path.join(workdir, "rules.fa"), gen.fa_text(automaton))
    model = _write(os.path.join(workdir, "model.pa"),
                   gen.learn_model_text(gen.last_byte_skeleton(), corpus))
    commands = []
    for i, (kind, args) in enumerate(steps, start=1):
        out = os.path.join(workdir,
                           f"out{i}.{'fa' if kind == 'reduce' else 'tsv'}")
        argv = [kind, "--input", rules, "--model", model, "--output", out]
        argv += args
        info = {"input": rules, "output": out,
                "type": args[args.index("--type") + 1]}
        if kind == "reduce":
            info["mode"] = args[args.index("--mode") + 1]
            info["param"] = float(args[args.index("--param") + 1])
        commands.append(Command(kind, argv, info))
    return Workload(commands, corpus)


def bigmodel(seed, workdir):
    """16 literal rules (166 states), 5 of them matching anywhere through a
    shared universal accepting sink, under a 33-state line x last-byte-class
    model that the ``learn`` command learns from a 5000-packet (~1.5 MB)
    binary HTTP-like corpus; ``distance`` compares the rule set with the
    set minus 4 end-anchored rules; ``eval`` runs both over the corpus.

    Why: the only workload whose PA x NFA products pass the 2000-state
    dense-solve limit, so the sparse solve and product memory dominate, and
    the only one that runs the traffic layer and corpus parsing.  No labels
    or greedy run here.
    """
    rng = random.Random(f"bigmodel:{seed}")
    rules = [gen.make_rule(rng, length)
             for length in (8, 8, 9, 9, 9, 10, 10, 10,
                            10, 11, 11, 11, 12, 12, 12, 12)]
    sink_rules = {0, 3, 6, 9, 12}
    dropped = [i for i in range(len(rules)) if i not in sink_rules][:4]
    kept = [r for i, r in enumerate(rules) if i not in dropped]
    kept_sinks = {j for j, i in enumerate(i for i in range(len(rules))
                                          if i not in dropped)
                  if i in sink_rules}
    literals = [gen.rule_literal(rng, r) for r in rules]
    corpus = gen.http_corpus(rng, literals, 5000, 0.02)

    full = _write(os.path.join(workdir, "rules.fa"),
                  gen.fa_text(gen.rule_set(rules, sink_rules)))
    fewer = _write(os.path.join(workdir, "fewer.fa"),
                   gen.fa_text(gen.rule_set(kept, kept_sinks)))
    skeleton = _write(os.path.join(workdir, "skeleton.fa"),
                      gen.fa_text(gen.line_skeleton()))
    packets = _write(os.path.join(workdir, "corpus.bin"),
                     gen.corpus_bin(corpus))
    model = os.path.join(workdir, "model.pa")
    commands = [
        Command("learn", ["learn", "--input", skeleton, "--corpus", packets,
                          "--format", "bin", "--output", model],
                {"output": model}),
        Command("distance", ["distance", full, fewer, "--model", model],
                {"first": full, "second": fewer}),
        Command("eval", ["eval", full, fewer, "--sample", packets,
                         "--format", "bin"],
                {"first": full, "second": fewer}),
    ]
    return Workload(commands, corpus)


WORKLOADS = {"onecomp": onecomp, "tentacles": tentacles,
             "bigmodel": bigmodel}
