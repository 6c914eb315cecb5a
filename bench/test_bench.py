"""Tests of the benchmark's own parts: generators, checks and tracing.

    PYTHONPATH=src python -m pytest -q bench
"""

import contextlib
import io
import os
import random
import time

import pytest

from nfareduce import accepts, cli, parse_nfa

import checks
import generators as gen
import spans
import workloads


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(tmp_path, name):
    make = workloads.WORKLOADS[name]
    runs = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        os.mkdir(tmp_path / sub)
        w = make(seed, str(tmp_path / sub))
        runs.append((_files(tmp_path / sub), w.corpus,
                     [c.argv[0] for c in w.commands]))
    assert runs[0] == runs[1]
    assert runs[0][0]["rules.fa"] != runs[2][0]["rules.fa"]
    # sizes do not depend on the seed, only contents do
    sizes = [parse_nfa(r[0]["rules.fa"].decode()).num_states
             for r in (runs[0], runs[2])]
    assert sizes[0] == sizes[1]


def test_matcher_agrees_with_library_membership():
    rng = random.Random(3)
    rules = [gen.make_rule(rng, 6, class_at=(2, 5), repeat=i)
             for i in (0, 1, 3, None)]
    text = gen.fa_text(gen.rule_set(rules, sink_rules={1}))
    words = gen.text_corpus(rng, [gen.rule_literal(rng, r) for r in rules],
                            300, 0, 12, 0.2)
    a = parse_nfa(text)
    mine = checks.Matcher(text)
    assert [mine.accepts(w) for w in words] == [accepts(a, w) for w in words]
    assert any(mine.accepts(w) for w in words)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_witness_check_flags_a_zero_bound(tmp_path):
    # original accepts "ab"; the pruned result accepts nothing
    original = _write(tmp_path / "a.fa",
                      "%Initial 0\n%Final 2\n0 0x61 1\n1 0x62 2\n")
    reduced = _write(tmp_path / "r.fa", "%Initial 0\n")
    info = {"input": original, "output": reduced, "type": "prune",
            "mode": "error", "param": 0.1}
    corpus = [b"ab", b"b", b""]
    zero = {"error_bound": "0", "output_states": "1"}
    problems, digest = checks.check_reduce(info, zero, corpus)
    assert digest["differing_words"] == 1
    assert any("error_bound=0.0" in p for p in problems)
    positive = {"error_bound": "1e-300", "output_states": "1"}
    assert checks.check_reduce(info, positive, corpus)[0] == []
    # a zero exact_distance is recorded as a note, not a failure
    problems, digest = checks.check_reduce(
        info, dict(positive, exact_distance="0.0"), corpus)
    assert problems == []
    assert any("exact_distance=0.0" in n for n in digest["notes"])
    # a self-loop result must not lose a word
    problems, _ = checks.check_reduce(dict(info, type="selfloop"), positive,
                                      corpus)
    assert any("rejects 1 corpus words" in p for p in problems)


def test_traced_self_times_sum_to_command_wall_time(tmp_path):
    rng = random.Random(5)
    automaton, words = gen.tentacles(rng, [3, 4, 5, 6])
    corpus = gen.text_corpus(rng, words, 200, 0, 8, 0.2) + words
    rules = _write(tmp_path / "rules.fa", gen.fa_text(automaton))
    model = _write(tmp_path / "model.pa",
                   gen.learn_model_text(gen.last_byte_skeleton(), corpus))
    commands = [
        ["label", "--input", rules, "--model", model, "--type", "prune",
         "--label", "3", "--output", str(tmp_path / "l.tsv")],
        ["reduce", "--input", rules, "--model", model, "--type", "prune",
         "--label", "2", "--mode", "size", "--param", "0.5", "--exact"],
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in commands:
            first = len(tracer.spans)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            wall = time.perf_counter() - t0
            tracer.settle()
            own = tracer.spans[first:]
            assert own[0].name == "cli.main" and own[0].parent is None
            assert all(s.self_time >= 0.0 for s in own)
            unattributed = wall - sum(s.self_time for s in own)
            assert 0.0 <= unattributed <= spans.UNATTRIBUTED_SHARE * wall
    finally:
        tracer.uninstall()
    assert cli.main.__module__ == "nfareduce.cli"
    layers = spans.layer_metrics(tracer.spans)
    assert layers["labels.label_s"] > 0.0
    assert layers["nfa.component_count"] == 8  # 4 chains, two labellings
    assert layers["reduction.distance_s"] > 0.0
