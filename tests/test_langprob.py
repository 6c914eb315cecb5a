"""The numeric kernel: PA x NFA products and language probability; the
language weight oracle; and the brute-force oracle they are checked
against."""

import random
from unittest import mock

import pytest

from nfareduce import (Nfa, determinize, make_p_exp, prob_lang, product_pa_nfa,
                       restrict)
from nfareduce.errors import AlphabetMismatchError

from util import (AB, bf_prob_lang, naive_lang_prob, random_nfa, random_pa,
                  union, weight_lang)


def universal(alphabet=AB):
    return Nfa(1, alphabet, [(0, s, 0) for s in alphabet], [0], [0])


def word_acceptor(word, alphabet=AB):
    n = len(word)
    return Nfa(n + 1, alphabet, [(i, s, i + 1) for i, s in enumerate(word)],
               [0], [n])


def a_sigma_star():
    return Nfa(2, AB, [(0, "a", 1)] + [(1, s, 1) for s in AB], [0], [1])


class TestProductPaNfa:
    def test_with_universal(self):
        p = make_p_exp(AB)
        r = product_pa_nfa(p, universal())
        assert r.ppa.num_states == 1
        assert r.ppa.initial == (1.0,)
        assert r.ppa.final == (1 / 3,)
        assert r.pair_map == ((0, 0),)

    def test_with_word_acceptor(self):
        p = make_p_exp(AB)
        r = product_pa_nfa(p, word_acceptor(("a", "b")))
        assert r.ppa.num_states == 3
        mass = r.ppa.initial[0]
        for src, _sym, dst, w in r.ppa.entries():
            mass *= w
        assert mass * r.ppa.final[2] == pytest.approx((1 / 3) ** 3, abs=1e-15)

    def test_empty_language(self):
        # the product is not trimmed: its one pair stays, with no final
        # weight
        p = make_p_exp(AB)
        dead = Nfa(1, AB, [], [0], [])
        r = product_pa_nfa(p, dead)
        assert r.pair_map == ((0, 0),)
        assert r.ppa.initial == (1.0,) and r.ppa.final == (0.0,)
        assert prob_lang(p, dead) == 0.0

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            product_pa_nfa(make_p_exp(("a", "b", "c")), universal())


class TestProbLang:
    def test_single_word(self):
        p = make_p_exp(AB)
        assert prob_lang(p, word_acceptor(("a", "b"))) == pytest.approx(
            1 / 27, abs=1e-12)

    def test_universal_is_one(self):
        rng = random.Random(31)
        for _ in range(10):
            p = random_pa(rng, alphabet=AB)
            assert prob_lang(p, universal()) == pytest.approx(1.0, abs=1e-9)

    def test_prefix_language(self):
        p = make_p_exp(AB)
        val = prob_lang(p, a_sigma_star())
        lower, tail = bf_prob_lang(p, a_sigma_star(), 20)
        assert tail < 1e-3
        assert lower - 1e-9 <= val <= lower + tail + 1e-9
        assert val == pytest.approx(1 / 3, abs=1e-9)

    def test_empty_automaton(self):
        p = make_p_exp(AB)
        assert prob_lang(p, Nfa(0, AB)) == 0.0


class TestWeightLang:
    def test_single_symbol(self):
        p = make_p_exp(AB)
        assert weight_lang(p, word_acceptor(("a",))) == pytest.approx(
            1 / 3, abs=1e-12)

    def test_epsilon_language(self):
        rng = random.Random(32)
        eps = Nfa(1, AB, [], [0], [0])
        for _ in range(5):
            p = random_pa(rng, alphabet=AB)
            assert weight_lang(p, eps) == pytest.approx(1.0, abs=1e-9)

    def test_words_summed_independently(self):
        p = make_p_exp(AB)
        both = union(word_acceptor(("a",)), word_acceptor(("a", "b")))
        assert weight_lang(p, both) == pytest.approx(1 / 3 + 1 / 9, abs=1e-12)

    def test_dominates_prob(self):
        rng = random.Random(33)
        for _ in range(20):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            assert weight_lang(p, a) >= prob_lang(p, a) - 1e-9

    def test_matches_word_weight_sum_on_finite_languages(self):
        from util import lang_upto, random_nfa as rand_nfa, word_weight
        rng = random.Random(39)
        for _ in range(15):
            p = random_pa(rng, max_states=4)
            a = rand_nfa(rng, max_states=6, alphabet=p.alphabet,
                         acyclic=True)
            want = sum(word_weight(p, w) for w in lang_upto(a, a.num_states))
            assert weight_lang(p, a) == pytest.approx(want, abs=1e-9)


class TestBfProbLang:
    def test_universal_covers_everything(self):
        p = make_p_exp(AB)
        lower, tail = bf_prob_lang(p, universal(), 20)
        assert lower + tail == pytest.approx(1.0, abs=1e-12)

    def test_empty_language(self):
        p = make_p_exp(AB)
        lower, _tail = bf_prob_lang(p, Nfa(1, AB, [], [0], []), 10)
        assert lower == 0.0

    def test_matches_naive_enumeration(self):
        rng = random.Random(34)
        for _ in range(15):
            p = random_pa(rng, max_states=4)
            a = random_nfa(rng, max_states=5, alphabet=p.alphabet)
            lower, tail = bf_prob_lang(p, a, 5)
            assert lower == pytest.approx(naive_lang_prob(p, a, 5), abs=1e-12)
            assert tail >= -1e-12


class TestSparseSolvePath:
    def test_large_chain_uses_sparse_direct_solve(self):
        # a 2051-state cycle makes the product one strongly connected
        # component past the dense-solve limit, solved by the sparse LU;
        # the language a^n (a^(n+1))* has a geometric closed form
        import scipy.sparse.linalg
        from nfareduce import Pa
        from nfareduce.langprob import DENSE_SOLVE_LIMIT
        n = 2050
        assert n > DENSE_SOLVE_LIMIT
        cont = 0.999662
        p = Pa(("a",), [1.0], [1.0 - cont], [(0, "a", 0, cont)])
        cycle = Nfa(n + 1, ("a",), [(i, "a", (i + 1) % (n + 1))
                                    for i in range(n + 1)], [0], [n])
        with mock.patch.object(scipy.sparse.linalg, "splu",
                               wraps=scipy.sparse.linalg.splu) as splu:
            got = prob_lang(p, cycle)
        assert splu.call_count == 1
        assert got == pytest.approx(
            cont ** n * (1.0 - cont) / (1.0 - cont ** (n + 1)), rel=1e-12,
            abs=0.0)


class TestInvariants:
    def test_oracle_sandwich(self):
        rng = random.Random(35)
        for _ in range(30):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            lower, tail = bf_prob_lang(p, a, 10)
            val = prob_lang(p, a)
            assert lower - 1e-9 <= val <= lower + tail + 1e-9

    def test_monotone_in_language(self):
        rng = random.Random(36)
        for _ in range(20):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            keep = rng.sample(range(a.num_states),
                              k=rng.randint(0, a.num_states))
            sub = restrict(a, keep)
            assert prob_lang(p, sub) <= prob_lang(p, a) + 1e-9

    def test_additive_on_disjoint_first_symbols(self):
        rng = random.Random(37)
        for _ in range(10):
            p = random_pa(rng, alphabet=AB)
            # a-prefixed vs b-prefixed languages are disjoint by construction
            xs = [(0, "a", 1)] + [(1, s, 1) for s in AB if rng.random() < 0.7]
            ys = [(0, "b", 1)] + [(1, s, 1) for s in AB if rng.random() < 0.7]
            x = Nfa(2, AB, xs, [0], [1])
            y = Nfa(2, AB, ys, [0], [1])
            assert prob_lang(p, union(x, y)) == pytest.approx(
                prob_lang(p, x) + prob_lang(p, y), abs=1e-9)

    def test_determinization_invariance(self):
        rng = random.Random(38)
        for _ in range(20):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            assert prob_lang(p, determinize(a)) == pytest.approx(
                prob_lang(p, a), abs=1e-9)
