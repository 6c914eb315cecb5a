"""State labellings: worked values, the variant chains, component-wise
computation, and agreement with brute-force definitions."""

import random

import pytest

from nfareduce import (Nfa, label_prune, label_selfloop, labels, make_p_exp,
                       word_prob)

from util import (AB, a2, banguage_nfa, bf_prob_lang, lang_upto,
                  oracle_labels, random_nfa, random_pa,
                  self_product_unambiguous, union, word_weight, words_upto)


class TestWorkedExamples:
    def test_prune_variant1(self):
        lab = label_prune(a2(), make_p_exp(AB), 1)
        assert lab[0] == pytest.approx(1 / 27 + 1 / 9, abs=1e-12)

    def test_prune_variant3(self):
        lab = label_prune(a2(), make_p_exp(AB), 3)
        assert lab[1] == pytest.approx(1 / 27, abs=1e-12)

    def test_prune_variant2_equals_variant1_unambiguous(self):
        a = a2()
        assert self_product_unambiguous(a)
        lab2 = label_prune(a, make_p_exp(AB), 2)
        assert lab2[0] == pytest.approx(4 / 27, abs=1e-12)

    def test_selfloop_variant1(self):
        lab = label_selfloop(a2(), make_p_exp(AB), 1)
        assert lab[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_selfloop_variant2(self):
        lab = label_selfloop(a2(), make_p_exp(AB), 2)
        assert lab[1] == pytest.approx(1 / 3, abs=1e-12)

    def test_selfloop_variant3(self):
        lab = label_selfloop(a2(), make_p_exp(AB), 3)
        assert lab[1] == pytest.approx(1 / 3 - 1 / 27, abs=1e-12)


class TestChains:
    def test_prune_chain(self):
        rng = random.Random(41)
        for _ in range(25):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            labs = {v: label_prune(a, p, v) for v in (1, 2, 3)}
            for q in range(a.num_states):
                assert labs[1][q] >= labs[2][q] - 1e-9
                assert labs[2][q] >= labs[3][q] - 1e-9

    def test_selfloop_chain(self):
        rng = random.Random(42)
        for _ in range(25):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            labs = {v: label_selfloop(a, p, v) for v in (1, 2, 3)}
            for q in range(a.num_states):
                assert labs[1][q] >= labs[2][q] - 1e-9
                assert labs[2][q] >= labs[3][q] - 1e-9

    def test_unambiguous_p1_equals_p2(self):
        rng = random.Random(43)
        checked = 0
        while checked < 15:
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            if not self_product_unambiguous(a):
                continue
            checked += 1
            l1 = label_prune(a, p, 1)
            l2 = label_prune(a, p, 2)
            for q in range(a.num_states):
                assert l1[q] == pytest.approx(l2[q], abs=1e-9)

    def test_selfloop3_rejects_small_negative_labels(self, monkeypatch):
        # a^16 into an accept-all state: there sl2 equals p3 and both are
        # 3^-16, far below 1e-6, so a p3 1 % too high makes sl3 negative by
        # much less than 1e-6 in absolute terms, yet by 1 % of sl2
        n = 16
        a = Nfa(n + 1, AB,
                [(q, "a", q + 1) for q in range(n)]
                + [(n, s, n) for s in AB], [0], [n])
        p = make_p_exp(AB)
        sl2 = label_selfloop(a, p, 2)
        assert sl2[n] < 1e-6
        assert label_selfloop(a, p, 3)[n] == pytest.approx(0.0, abs=1e-22)
        through = labels._through
        monkeypatch.setattr(
            labels, "_through",
            lambda sub, p, det_cap: [1.01 * x
                                     for x in through(sub, p, det_cap)])
        with pytest.raises(RuntimeError, match="internal error"):
            label_selfloop(a, p, 3)


class TestComponentWise:
    def test_matches_whole_automaton(self):
        rng = random.Random(44)
        for _ in range(6):
            p = random_pa(rng, max_states=3)
            # two disjoint sub-automata: guaranteed multiple components
            x = random_nfa(rng, max_states=4, alphabet=p.alphabet)
            y = random_nfa(rng, max_states=4, alphabet=p.alphabet)
            a = union(x, y)
            for kind, fn in (("prune", label_prune),
                             ("selfloop", label_selfloop)):
                for v in (1, 2, 3):
                    per_comp = fn(a, p, v)
                    whole = oracle_labels(a, p, kind, v, by_component=False)
                    for q in range(a.num_states):
                        assert per_comp[q] == pytest.approx(whole[q], abs=1e-9)


def brute_prune_labels(a, p, variant, max_len):
    """Pruning labels straight from their language definitions, by bounded
    word enumeration.  Exact up to the probability mass beyond max_len."""
    from nfareduce import reach
    values = []
    for q in range(a.num_states):
        if variant == 1:
            total = 0.0
            for f in sorted(reach(a, [q]) & a.final):
                back = banguage_nfa(a, [f])
                total += sum(word_prob(p, w) for w in lang_upto(back, max_len))
            values.append(total)
        elif variant == 2:
            targets = reach(a, [q]) & a.final
            back = banguage_nfa(a, targets)
            values.append(sum(word_prob(p, w)
                              for w in lang_upto(back, max_len)))
        else:
            values.append(sum(word_prob(p, w)
                              for w in _through_words(a, q, max_len)))
    return values


def _through_words(a, q, max_len):
    back = lang_upto(banguage_nfa(a, [q]), max_len)
    fwd = lang_upto(Nfa(a.num_states, a.alphabet, a.transitions(), [q],
                        a.final), max_len)
    return {u + v for u in back for v in fwd if len(u) + len(v) <= max_len}


def brute_selfloop_labels(a, p, variant, max_len):
    values = []
    for q in range(a.num_states):
        back = lang_upto(banguage_nfa(a, [q]), max_len)
        if variant == 1:
            values.append(sum(word_weight(p, w) for w in back))
        elif variant == 2:
            prefixed = {w for w in words_upto(a.alphabet, max_len)
                        if any(w[:i] in back for i in range(len(w) + 1))}
            values.append(sum(word_prob(p, w) for w in prefixed))
        else:
            prefixed = {w for w in words_upto(a.alphabet, max_len)
                        if any(w[:i] in back for i in range(len(w) + 1))}
            through = _through_words(a, q, max_len)
            values.append(sum(word_prob(p, w) for w in prefixed)
                          - sum(word_prob(p, w) for w in through))
    return values


class TestBruteForceDefinitions:
    def test_prune_labels_match(self):
        rng = random.Random(46)
        max_len = 12
        for _ in range(4):
            p = random_pa(rng, max_states=3, alphabet=AB)
            a = random_nfa(rng, max_states=4, alphabet=AB)
            _, tail = bf_prob_lang(p, a, max_len)
            for v in (1, 2, 3):
                lab = label_prune(a, p, v)
                brute = brute_prune_labels(a, p, v, max_len)
                for q in range(a.num_states):
                    # variant 1 may count a word several times, so its tail
                    # allowance scales with the number of reachable finals
                    slack = tail * max(1, a.num_states) + 1e-9
                    assert brute[q] - 1e-9 <= lab[q] <= brute[q] + slack

    def test_selfloop_prob_labels_match(self):
        rng = random.Random(47)
        max_len = 12
        for _ in range(4):
            p = random_pa(rng, max_states=3, alphabet=AB)
            a = random_nfa(rng, max_states=4, alphabet=AB)
            _, tail = bf_prob_lang(p, a, max_len)
            for v in (2, 3):
                lab = label_selfloop(a, p, v)
                brute = brute_selfloop_labels(a, p, v, max_len)
                for q in range(a.num_states):
                    assert lab[q] == pytest.approx(brute[q],
                                                   abs=2 * tail + 1e-9)

    def test_selfloop_weight_labels_match_on_acyclic(self):
        # back-languages of a DAG are finite, so the weight label is an
        # exact finite sum
        rng = random.Random(48)
        for _ in range(8):
            p = random_pa(rng, max_states=3, alphabet=AB)
            a = random_nfa(rng, max_states=5, alphabet=AB, acyclic=True)
            lab = label_selfloop(a, p, 1)
            brute = brute_selfloop_labels(a, p, 1, a.num_states)
            for q in range(a.num_states):
                assert lab[q] == pytest.approx(brute[q], abs=1e-9)

    def test_values_nonnegative(self):
        rng = random.Random(49)
        for _ in range(10):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            for fn in (label_prune, label_selfloop):
                for v in (1, 2, 3):
                    assert all(x >= 0.0 for x in fn(a, p, v).values)
