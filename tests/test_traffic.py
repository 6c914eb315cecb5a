"""Traffic-model learning and empirical mismatch evaluation."""

import random

import pytest

from nfareduce import traffic
from nfareduce import (AlphabetMismatchError, DeterminizationCapError, Nfa,
                       accepts, complete_dfa, count_events, determinize,
                       learn_pa, reduce_prune, reduce_selfloop, self_loop,
                       traffic_error, validate_pa, word_prob)

from util import (AB, a2, eval_table, random_dfa, random_nfa, sample_word,
                  symmetric_difference)


def two_state_skeleton():
    # s0: a->s0, b->s1; s1: a->s1, b->s1 (complete DFA over {a, b})
    return Nfa(2, AB, [(0, "a", 0), (0, "b", 1), (1, "a", 1), (1, "b", 1)],
               [0], [1])


class TestCountEvents:
    def test_event_balance(self):
        # each visit to a state, by a word's start or by a transition into
        # it, is followed by one transition out of it or one word end
        skeleton = two_state_skeleton()
        corpus = [("a", "b"), ("a",), ("b",)]
        trans, ends = count_events(skeleton, corpus)
        assert trans.tolist() == [[2, 2], [0, 0]]
        assert ends.tolist() == [1, 2]
        for q in (0, 1):
            incoming = sum(int(trans[s, j])
                           for s in (0, 1)
                           for j, sym in enumerate(skeleton.alphabet)
                           if skeleton.succ(s, sym) == (q,))
            if q in skeleton.initial:
                incoming += len(corpus)
            assert trans[q].sum() + ends[q] == incoming


class TestLearnPa:
    def test_worked_counting_example(self):
        pa = learn_pa(two_state_skeleton(), [("a", "b"), ("a",), ("b",)])
        assert validate_pa(pa) == []
        assert pa.initial == (1.0, 0.0)
        assert pa.row("a", 0) == {0: 2 / 5}
        assert pa.row("b", 0) == {1: 2 / 5}
        assert pa.final[0] == 1 / 5
        assert pa.final[1] == 1.0
        assert pa.row("a", 1) == {}
        assert pa.row("b", 1) == {}

    def test_epsilon_corpus(self):
        pa = learn_pa(two_state_skeleton(), [()])
        assert pa.num_states == 1  # the unvisited state is dropped
        assert pa.final == (1.0,)

    def test_geometric_single_state(self):
        skeleton = Nfa(1, ("a",), [(0, "a", 0)], [0], [0])
        pa = learn_pa(skeleton, [("a",), ("a",), ("a",)])
        assert pa.row("a", 0) == {0: 0.5}
        assert pa.final == (0.5,)

    def test_rejects_incomplete_skeleton(self):
        partial = Nfa(2, AB, [(0, "a", 1)], [0], [1])
        with pytest.raises(ValueError):
            learn_pa(partial, [("a",)])

    def test_rejects_nondeterministic_skeleton(self):
        nd = Nfa(2, AB, [(0, "a", 0), (0, "a", 1), (0, "b", 0),
                         (1, "a", 1), (1, "b", 1)], [0], [1])
        with pytest.raises(ValueError):
            learn_pa(nd, [("a",)])

    def test_first_fault_in_state_and_alphabet_order(self):
        # state 0 is complete; state 1 has no "a" and two "b" successors
        skeleton = Nfa(2, AB, [(0, "a", 0), (0, "b", 1), (1, "b", 0),
                               (1, "b", 1)], [0], [1])
        incomplete = (r"^skeleton is incomplete: state 1 has no 'a' "
                      r"transition \(see complete_dfa\)$")
        with pytest.raises(ValueError, match=incomplete):
            learn_pa(skeleton, [("a",)])
        with pytest.raises(ValueError, match=incomplete):
            count_events(skeleton, [("a",)])
        with pytest.raises(ValueError, match=r"^skeleton is "
                           r"nondeterministic at state 1, 'b'$"):
            complete_dfa(skeleton)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            learn_pa(two_state_skeleton(), [])

    def test_always_valid(self):
        rng = random.Random(61)
        for _ in range(15):
            skeleton = complete_dfa(random_dfa(rng, max_states=4))
            corpus = [tuple(rng.choice(skeleton.alphabet)
                            for _ in range(rng.randint(0, 5)))
                      for _ in range(rng.randint(1, 40))]
            assert validate_pa(learn_pa(skeleton, corpus)) == []

    def test_fidelity_improves_with_corpus_size(self):
        # words drawn from a known model: the learned word probabilities
        # drift closer to the empirical frequencies as the corpus grows
        from nfareduce import Pa
        rng = random.Random(62)
        source = Pa(AB, [1.0], [0.4],
                    [(0, "a", 0, 0.25), (0, "b", 0, 0.35)])
        skeleton = two_state_skeleton()

        def total_drift(n_words):
            corpus = [sample_word(rng, source) for _ in range(n_words)]
            learned = learn_pa(skeleton, corpus)
            freqs = {}
            for w in corpus:
                freqs[w] = freqs.get(w, 0) + 1
            return sum(abs(c / n_words - word_prob(learned, w))
                       for w, c in freqs.items())

        assert total_drift(8000) < total_drift(100)


class TestCompleteDfa:
    def test_already_complete_unchanged(self):
        skeleton = two_state_skeleton()
        assert complete_dfa(skeleton) is skeleton

    def test_worked_example(self):
        acceptor = Nfa(3, AB, [(0, "a", 1), (1, "b", 2)], [0], [2])
        full = complete_dfa(acceptor)
        assert full.num_states == 4
        for q in range(4):
            for sym in AB:
                assert len(full.succ(q, sym)) == 1
        # language unchanged
        assert accepts(full, ("a", "b"))
        assert not accepts(full, ("a", "a"))

    def test_one_state_no_transitions(self):
        lonely = Nfa(1, ("a",), [], [0], [0])
        assert complete_dfa(lonely).num_states == 2

    def test_rejects_nondeterministic(self):
        nd = Nfa(2, AB, [(0, "a", 0), (0, "a", 1)], [0], [1])
        with pytest.raises(ValueError):
            complete_dfa(nd)


class TestTrafficError:
    def test_identical_automata(self):
        a = a2()
        assert traffic_error(a, a, [("a", "b"), ("b",)]) == (0, 2, 0.0)

    def test_quarter(self):
        a = a2()
        looped = reduce_selfloop(a, [1])
        # only aa flips: it gains membership through the looped state
        sample = [("a", "b"), ("b",), ("a", "a"), ("b", "b")]
        mismatches, total, ratio = traffic_error(a, looped, sample)
        assert (mismatches, total) == (1, 4)
        assert ratio == 0.25

    def test_worked_example(self):
        a = a2()
        looped = reduce_selfloop(a, [1])
        sample = [("a", "b"), ("a", "a"), ("b",)]
        assert traffic_error(a, looped, sample) == (1, 3, pytest.approx(1 / 3))

    def test_empty_sample(self):
        with pytest.raises(ValueError):
            traffic_error(a2(), a2(), [])

    def test_alphabet_mismatch(self):
        other = Nfa(1, ("a", "c"), [(0, "a", 0)], [0], [0])
        with pytest.raises(AlphabetMismatchError, match="alphabets differ"):
            traffic_error(a2(), other, [("a",)])

    def test_symbol_after_the_run_dies_is_checked(self):
        # every run dies on "b" before it reaches the foreign "z"
        a = a2()
        with pytest.raises(ValueError, match="symbol 'z' not in alphabet"):
            traffic_error(a, a, [("b", "z")])

    def test_cap_counts_only_the_subsets_runs_reach(self, monkeypatch):
        # subsets {0}, {1, 2}, {0, 3}; a filled row numbers its targets, so
        # a sample that stays in {0} numbers two of the three
        a = Nfa(4, AB, [(0, "a", 1), (0, "a", 2), (1, "b", 0), (2, "b", 3)],
                [0], [1, 2])
        with pytest.raises(DeterminizationCapError):
            determinize(a, cap=2)
        monkeypatch.setattr(traffic, "DEFAULT_DET_CAP", 2)
        assert traffic_error(a, a, [("b",)]) == (0, 1, 0.0)
        with pytest.raises(DeterminizationCapError):
            traffic_error(a, a, [("a", "b")])
        monkeypatch.setattr(traffic, "DEFAULT_DET_CAP", 3)
        assert traffic_error(a, a, [("a", "b")]) == (0, 1, 0.0)

    def test_trapped_starts_fill_only_the_start_row(self):
        # both initial states accept every word, so the start pair is
        # trapped on both sides: it has no moves and every run goes dead
        universal = Nfa(1, AB, [(0, "a", 0), (0, "b", 0)], [0], [0])
        looped = self_loop(a2(), [0])
        sample = [(), ("a", "b"), ("b", "b", "a")]
        result, table = eval_table(universal, looped, sample)
        assert result == (0, 3, 0.0)
        assert (len(table.keys), table.start) == (2, 1)
        assert table.table.tolist() == [[0, 0], [0, 0]]

    def test_cap_counts_the_pairs_runs_reach(self, monkeypatch):
        # the sample reaches 4 of the 6 pairs of the difference DFA
        amb = Nfa(3, AB, [(0, "a", 1), (0, "a", 2), (1, "b", 0)], [0],
                  [1, 2])
        sample = [("a", "b"), ("b",), ("a",), ("a", "a")]
        assert symmetric_difference(amb, a2()).num_states == 6
        assert len(eval_table(amb, a2(), sample)[1].keys) - 1 == 4
        monkeypatch.setattr(traffic, "DEFAULT_DET_CAP", 4)
        assert traffic_error(amb, a2(), sample) == (3, 4, 0.75)
        monkeypatch.setattr(traffic, "DEFAULT_DET_CAP", 3)
        with pytest.raises(DeterminizationCapError):
            traffic_error(amb, a2(), sample)

    def test_duplicates_count(self):
        a = a2()
        looped = reduce_selfloop(a, [1])
        sample = [("a", "a")] * 3 + [("b",)]
        assert traffic_error(a, looped, sample)[:2] == (3, 4)

    def test_mismatch_direction(self):
        rng = random.Random(63)
        for _ in range(15):
            a = random_nfa(rng, max_states=6)
            v = rng.sample(range(a.num_states), k=rng.randint(0, a.num_states))
            pruned = reduce_prune(a, v)
            looped = reduce_selfloop(a, v)
            sample = [tuple(rng.choice(a.alphabet)
                            for _ in range(rng.randint(0, 5)))
                      for _ in range(40)]
            for w in sample:
                if accepts(a, w) != accepts(pruned, w):
                    assert accepts(a, w) and not accepts(pruned, w)
                if accepts(a, w) != accepts(looped, w):
                    assert accepts(looped, w) and not accepts(a, w)

    def test_selfloop_mismatches_match_per_word_accepts(self):
        # the looped states accept every word; the lazy subset table takes
        # them as traps, so a subset holding one becomes one state
        rng = random.Random(64)
        for _ in range(15):
            a = random_nfa(rng, max_states=6)
            v = rng.sample(range(a.num_states), k=rng.randint(1, a.num_states))
            looped = self_loop(a, v)
            sample = [tuple(rng.choice(a.alphabet)
                            for _ in range(rng.randint(0, 6)))
                      for _ in range(60)]
            want = sum(accepts(a, w) != accepts(looped, w) for w in sample)
            assert traffic_error(a, looped, sample)[:2] == (want, len(sample))
            assert traffic_error(looped, a, sample)[:2] == (want, len(sample))
