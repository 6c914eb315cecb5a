"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s -v tests/test_acceptance.py`` to see the lines as the
criteria execute.
"""

import functools
import random
import time

from nfareduce import (ReductionConfig, accepts, distance, err_prune,
                       err_selfloop, greedy_error_driven, greedy_size_driven,
                       label_prune, label_selfloop, learn_pa, make_p_exp,
                       prob_lang, reduce_prune, reduce_selfloop, validate_pa,
                       word_prob)
from nfareduce.nfa import Nfa

from util import (AB, a2, bf_prob_lang, oracle_labels, random_dfa,
                  random_nfa, random_pa, tentacles, words_upto)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({title}): FAIL")
                raise
            suffix = f" [{detail}]" if detail else ""
            print(f"criterion {number:2d} ({title}): PASS{suffix}")
        return wrapper
    return deco


def bf_distance(a1, a2, p, max_len):
    """Truncated symmetric-difference mass plus the unreachable tail; an
    oracle for distance that never touches the solver pipeline."""
    lower = sum(word_prob(p, w) for w in words_upto(a1.alphabet, max_len)
                if accepts(a1, w) != accepts(a2, w))
    covered = sum(word_prob(p, w) for w in words_upto(a1.alphabet, max_len))
    return lower, max(0.0, 1.0 - covered)


@criterion(1, "oracle sandwich")
def test_oracle_sandwich():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(200):
        p = random_pa(rng, max_states=5)
        a = random_nfa(rng, max_states=8, alphabet=p.alphabet)
        lower, tail = bf_prob_lang(p, a, 14)
        val = prob_lang(p, a)
        assert lower - 1e-9 <= val <= lower + tail + 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    return f"200 instances in {elapsed:.1f}s"


@criterion(2, "exponential model exactness")
def test_p_exp_exactness():
    rng = random.Random(102)
    alphabets = (("a",), ("a", "b"), ("a", "b", "c"))
    for _ in range(100):
        alphabet = alphabets[rng.randrange(3)]
        p = make_p_exp(alphabet)
        mu = 1.0 / (len(alphabet) + 1)
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert abs(word_prob(p, w) - mu ** (len(w) + 1)) <= 1e-12
    return "100 words, |alphabet| in {1,2,3}, tol 1e-12"


@criterion(3, "label chains")
def test_label_chains():
    rng = random.Random(103)
    for _ in range(100):
        p = random_pa(rng, max_states=4)
        a = random_nfa(rng, max_states=6, alphabet=p.alphabet)
        pl = {v: label_prune(a, p, v) for v in (1, 2, 3)}
        sl = {v: label_selfloop(a, p, v) for v in (1, 2, 3)}
        for q in range(a.num_states):
            assert pl[1][q] >= pl[2][q] - 1e-9
            assert pl[2][q] >= pl[3][q] - 1e-9
            assert sl[1][q] >= sl[2][q] - 1e-9
            assert sl[2][q] >= sl[3][q] - 1e-9
    return "100 instances, both families"


@criterion(4, "bound soundness, C1(a)")
def test_bound_soundness():
    rng = random.Random(104)
    for _ in range(500):
        p = random_pa(rng, max_states=4)
        a = random_nfa(rng, max_states=7, alphabet=p.alphabet)
        v = set(rng.sample(range(a.num_states),
                           k=rng.randint(0, a.num_states)))
        variant = rng.choice((1, 2, 3))
        if rng.random() < 0.5:
            lab = label_prune(a, p, variant)
            bound = err_prune(a, v, lab)
            red = reduce_prune(a, v)
        else:
            lab = label_selfloop(a, p, variant)
            bound = err_selfloop(a, v, lab)
            red = reduce_selfloop(a, v)
        assert bound + 1e-9 >= distance(a, red, p)
    return "500 draws over kinds and variants"


@criterion(5, "reduction directions")
def test_directions():
    rng = random.Random(105)
    for _ in range(100):
        a = random_nfa(rng, max_states=6)
        v = set(rng.sample(range(a.num_states),
                           k=rng.randint(0, a.num_states)))
        pruned = reduce_prune(a, v)
        looped = reduce_selfloop(a, v)
        for w in words_upto(a.alphabet, 6):
            acc = accepts(a, w)
            if accepts(pruned, w):
                assert acc  # pruning never accepts a rejected word
            if acc:
                assert accepts(looped, w)  # self-loop never rejects
    return "100 instances, exhaustive words to length 6"


@criterion(6, "greedy contracts")
def test_greedy_contracts():
    rng = random.Random(106)
    for _ in range(100):
        p = random_pa(rng, max_states=4)
        kind = rng.choice(("prune", "selfloop"))
        # C1(b) for self-loop needs a single initial state to reach size 1
        a = random_nfa(rng, max_states=7, alphabet=p.alphabet,
                       single_initial=(kind == "selfloop"))
        n = rng.randint(1, a.num_states)
        cfg = ReductionConfig(kind, rng.choice((1, 2, 3)), "size", n)
        report = greedy_size_driven(a, p, cfg)
        assert report.output_size <= n
        assert distance(a, report.reduced, p) <= report.error_bound + 1e-9
    for _ in range(100):
        p = random_pa(rng, max_states=4)
        a = random_nfa(rng, max_states=7, alphabet=p.alphabet)
        budget = rng.random()
        cfg = ReductionConfig(rng.choice(("prune", "selfloop")),
                              rng.choice((1, 2, 3)), "error", budget)
        report = greedy_error_driven(a, p, cfg)
        assert report.error_bound <= budget + 1e-12
        assert distance(a, report.reduced, p) <= report.error_bound + 1e-9
    return "100 instances per mode"


@criterion(7, "worked micro-benchmark")
def test_worked_micro_benchmark():
    a = a2()
    p = make_p_exp(AB)

    report = greedy_size_driven(a, p, ReductionConfig("prune", 3, "size", 2))
    lower, tail = bf_distance(a, report.reduced, p, 16)
    assert lower - 1e-9 <= report.error_bound <= lower + tail + 1e-9
    assert abs(report.error_bound - 1 / 27) <= 1e-12
    assert report.output_size == 2

    looped = reduce_selfloop(a, [1])
    exact = distance(a, looped, p)
    lower, tail = bf_distance(a, looped, p, 16)
    assert lower - 1e-9 <= exact <= lower + tail + 1e-9
    assert abs(exact - 8 / 27) <= 1e-12
    assert abs(label_selfloop(a, p, 3)[1] - exact) <= 1e-12
    return "prune bound 1/27, self-loop distance 8/27, both oracle-confirmed"


@criterion(8, "monotone size/error trade-off")
def test_monotone_tradeoff():
    rng = random.Random(108)
    a = tentacles(rng, chains=20, min_len=5, max_len=10)
    p = random_pa(rng, max_states=4, alphabet=a.alphabet)
    grid = list(range(5, a.num_states, 5)) + [a.num_states]
    for kind, variant, label_fn in (("selfloop", 2, label_selfloop),
                                    ("prune", 3, label_prune)):
        labels = label_fn(a, p, variant)
        bounds = []
        for n in grid:
            cfg = ReductionConfig(kind, variant, "size", n)
            bounds.append(greedy_size_driven(a, p, cfg, labels=labels)
                          .error_bound)
        for smaller_n, larger_n in zip(bounds, bounds[1:]):
            assert larger_n <= smaller_n + 1e-12
    return f"|A|={a.num_states}, grid of {len(grid)} bounds, both kinds"


@criterion(9, "learned model validity")
def test_learn_validity():
    rng = random.Random(109)
    for _ in range(30):
        from nfareduce import complete_dfa
        skeleton = complete_dfa(random_dfa(rng, max_states=4))
        corpus = [tuple(rng.choice(skeleton.alphabet)
                        for _ in range(rng.randint(0, 6)))
                  for _ in range(rng.randint(1, 50))]
        assert validate_pa(learn_pa(skeleton, corpus)) == []

    skeleton = Nfa(2, AB, [(0, "a", 0), (0, "b", 1), (1, "a", 1),
                           (1, "b", 1)], [0], [1])
    pa = learn_pa(skeleton, [("a", "b"), ("a",), ("b",)])
    assert pa.row("a", 0) == {0: 2 / 5}
    assert pa.row("b", 0) == {1: 2 / 5}
    assert pa.final[0] == 1 / 5
    assert pa.final[1] == 1.0
    return "30 random corpora valid; worked counts exact"


@criterion(10, "component-wise labelling")
def test_componentwise_labelling():
    rng = random.Random(110)
    for _ in range(3):
        a = tentacles(rng, chains=8, min_len=4, max_len=7)
        p = random_pa(rng, max_states=3, alphabet=a.alphabet)
        for kind, fn in (("prune", label_prune),
                         ("selfloop", label_selfloop)):
            for variant in (1, 2, 3):
                split = fn(a, p, variant)
                whole = oracle_labels(a, p, kind, variant, by_component=False)
                for q in range(a.num_states):
                    assert abs(split[q] - whole[q]) <= 1e-9
    return "3 tentacle instances, all six labellings"
