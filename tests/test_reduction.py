"""Reduction operators, error bounds, greedy algorithms, and distance."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import (Nfa, ReductionConfig, StateLabelling, accepts,
                       distance, err_prune, err_selfloop,
                       greedy_error_driven, greedy_size_driven, label_prune,
                       label_selfloop, make_p_exp, minimize_prune_set,
                       minimize_selfloop_set, prune_survivors, reduce_prune,
                       reduce_selfloop, restrict, selfloop_survivors)

from util import (AB, BA, a2, lang_upto, nfa_self_loop, nfas, oracle_greedy,
                  oracle_minimize_prune_set, random_nfa, random_pa,
                  same_automaton, words_upto)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def p_exp_ab():
    return make_p_exp(AB)


class TestReduceOps:
    def test_prune_nothing(self):
        a = a2()
        assert reduce_prune(a, []) == a

    def test_prune_everything(self):
        assert reduce_prune(a2(), range(4)).num_states == 0

    def test_prune_worked(self):
        r = reduce_prune(a2(), [1])
        assert r.num_states == 2
        assert lang_upto(r, 4) == {("b",)}

    def test_selfloop_nothing(self):
        a = a2()
        assert reduce_selfloop(a, []) == a

    def test_selfloop_worked(self):
        r = reduce_selfloop(a2(), [1])
        assert r.num_states == 3  # state 2 loses its only in-edge
        want = {("b",)} | {("a",) + w for w in words_upto(AB, 3)}
        assert lang_upto(r, 4) == want

    def test_selfloop_everything_single_initial(self):
        chain = Nfa(3, AB, [(0, "a", 1), (1, "b", 2)], [0], [2])
        r = reduce_selfloop(chain, range(3))
        assert r.num_states == 1
        assert lang_upto(r, 3) == set(words_upto(AB, 3))


class TestMinimizeSets:
    def test_already_minimal(self):
        a = a2()
        lab = label_prune(a, p_exp_ab(), 3)
        assert minimize_prune_set(a, {1}, lab) == {1}

    def test_prune_subsumed_state_dropped(self):
        a = a2()
        lab = label_prune(a, p_exp_ab(), 3)
        # removing 1 already starves 2, so {1,2} minimizes to {1}
        assert minimize_prune_set(a, {1, 2}, lab) == {1}

    def test_empty(self):
        a = a2()
        lab = label_prune(a, p_exp_ab(), 3)
        assert minimize_prune_set(a, set(), lab) == frozenset()
        assert minimize_selfloop_set(a, set()) == frozenset()

    def test_selfloop_shadowed_state_dropped(self):
        chain = Nfa(3, ("a",), [(0, "a", 1), (1, "a", 2)], [0], [2])
        assert minimize_selfloop_set(chain, {1, 2}) == {1}

    def test_selfloop_singleton(self):
        assert minimize_selfloop_set(a2(), {1}) == {1}

    def test_minimized_set_reduces_identically(self):
        rng = random.Random(51)
        for _ in range(40):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            v = set(rng.sample(range(a.num_states),
                               k=rng.randint(0, a.num_states)))
            lab = label_prune(a, p, 3)
            small = minimize_prune_set(a, v, lab)
            assert small <= v
            assert prune_survivors(a, small) == prune_survivors(a, v)
            small_sl = minimize_selfloop_set(a, v)
            assert small_sl <= v
            assert selfloop_survivors(a, small_sl) == selfloop_survivors(a, v)


def tied_labels(data, n):
    """Labels drawn from three values, so the label order has ties."""
    values = data.draw(st.lists(st.sampled_from((0.0, 0.125, 0.25)),
                                min_size=n, max_size=n))
    return StateLabelling(tuple(values))


class TestAgainstOracles:
    """The one-search minimization and the bisected size greedy against
    the survivor pass per member and the linear scan, on automata that
    need not be trim."""

    @SETTINGS
    @given(nfas(), st.data())
    def test_minimize_prune_set_matches_oracle(self, a, data):
        # each state in or out with even odds, so sets are often large
        flags = data.draw(st.lists(st.booleans(), min_size=a.num_states,
                                   max_size=a.num_states))
        v = frozenset(q for q, flag in enumerate(flags) if flag)
        lab = tied_labels(data, a.num_states)
        assert minimize_prune_set(a, v, lab) == \
            oracle_minimize_prune_set(a, v, lab)

    @SETTINGS
    @given(nfas(), st.data())
    def test_reduce_selfloop_matches_looping_every_member(self, a, data):
        # members that do not survive included: only the survivors are
        # looped, which must build the same automaton
        flags = data.draw(st.lists(st.booleans(), min_size=a.num_states,
                                   max_size=a.num_states))
        v = frozenset(q for q, flag in enumerate(flags) if flag)
        want = restrict(nfa_self_loop(a, v), selfloop_survivors(a, v))
        assert same_automaton(reduce_selfloop(a, v), want)

    @SETTINGS
    @given(nfas(min_states=2), st.data())
    def test_size_greedy_matches_scan(self, a, data):
        kind = data.draw(st.sampled_from(("prune", "selfloop")))
        n = data.draw(st.integers(1, a.num_states - 1))
        lab = tied_labels(data, a.num_states)
        report = greedy_size_driven(a, make_p_exp(BA),
                                    ReductionConfig(kind, 2, "size", n),
                                    labels=lab)
        chosen, bound, reduced = oracle_greedy(a, kind, "size", n, lab)
        assert report.chosen_set == chosen
        assert report.error_bound == bound
        assert same_automaton(report.reduced, reduced)

    @SETTINGS
    @given(nfas(), st.data())
    def test_error_greedy_matches_oracle(self, a, data):
        kind = data.draw(st.sampled_from(("prune", "selfloop")))
        budget = data.draw(st.sampled_from((0.0, 0.125, 0.3, 0.5, 1.0)))
        lab = tied_labels(data, a.num_states)
        report = greedy_error_driven(a, make_p_exp(BA),
                                     ReductionConfig(kind, 2, "error", budget),
                                     labels=lab)
        chosen, bound, reduced = oracle_greedy(a, kind, "error", budget, lab)
        assert report.chosen_set == chosen
        assert report.error_bound == bound
        assert same_automaton(report.reduced, reduced)

    def test_a_looped_dead_state_revives_its_predecessors(self):
        # state 2 cannot reach a final state; looped, it is final, so the
        # survivor count rises from 2 to 3 as the set grows
        a = Nfa(3, AB, [(0, "a", 1), (0, "b", 2)], [0], [1])
        assert len(selfloop_survivors(a, set())) == 2
        assert len(selfloop_survivors(a, {2})) == 3

    def test_size_greedy_finds_the_first_fit_before_a_dead_state(self):
        # 0 -a-> 1 -a-> 2 (final) and the dead chain 0 -b-> 3 -b-> 4, in the
        # label order 2, 1, 4, 3, 0: the prefixes leave 3, 2, 4, 3 and 1
        # survivors, since looping the dead 4 and 3 revives the chain; the
        # first fit of 2 states is the prefix {2, 1}
        a = Nfa(5, AB, [(0, "a", 1), (1, "a", 2), (0, "b", 3), (3, "b", 4)],
                [0], [2])
        lab = StateLabelling((0.5, 0.2, 0.1, 0.4, 0.3))
        order = (2, 1, 4, 3, 0)
        counts = [len(selfloop_survivors(a, order[:k])) for k in range(1, 6)]
        assert counts == [3, 2, 4, 3, 1]
        report = greedy_size_driven(a, make_p_exp(AB),
                                    ReductionConfig("selfloop", 2, "size", 2),
                                    labels=lab)
        assert report.chosen_set == {1, 2}
        assert report.output_size == 2


class TestErrFunctions:
    def test_empty_set_zero(self):
        a = a2()
        lab3 = label_prune(a, p_exp_ab(), 3)
        sl3 = label_selfloop(a, p_exp_ab(), 3)
        assert err_prune(a, set(), lab3) == 0.0
        assert err_selfloop(a, set(), sl3) == 0.0

    def test_prune_worked_values(self):
        a = a2()
        p = p_exp_ab()
        lab3 = label_prune(a, p, 3)
        e1 = err_prune(a, {1}, lab3)
        assert e1 == pytest.approx(1 / 27, abs=1e-12)
        assert e1 == pytest.approx(distance(a, reduce_prune(a, {1}), p),
                                   abs=1e-12)
        assert err_prune(a, {1, 2}, lab3) == pytest.approx(1 / 27, abs=1e-12)

    def test_selfloop_worked_values(self):
        a = a2()
        p = p_exp_ab()
        sl3 = label_selfloop(a, p, 3)
        e = err_selfloop(a, {1}, sl3)
        assert e == pytest.approx(8 / 27, abs=1e-12)
        assert e == pytest.approx(distance(a, reduce_selfloop(a, {1}), p),
                                  abs=1e-12)

    def test_selfloop_bound_capped(self):
        from nfareduce import StateLabelling
        a = a2()
        fat = StateLabelling((0.0, 0.9, 0.0, 0.9))
        assert minimize_selfloop_set(a, {1, 3}) == {1, 3}
        assert err_selfloop(a, {1, 3}, fat) == 1.0


class TestGreedySizeDriven:
    def test_worked_prune_trace(self):
        a = a2()
        cfg = ReductionConfig("prune", 3, "size", 2)
        report = greedy_size_driven(a, p_exp_ab(), cfg)
        assert report.chosen_set == {1}
        assert report.output_size == 2
        assert report.error_bound == pytest.approx(1 / 27, abs=1e-12)

    def test_no_op_when_small_enough(self):
        a = a2()
        cfg = ReductionConfig("prune", 3, "size", 4)
        report = greedy_size_driven(a, p_exp_ab(), cfg)
        assert report.reduced == a
        assert report.error_bound == 0.0
        assert report.chosen_set == frozenset()

    def test_selfloop_default_order(self):
        # default order is by the configured labelling itself: variant-3
        # values put states 2 and 3 before 1, so both end up in the bound
        a = a2()
        p = p_exp_ab()
        cfg = ReductionConfig("selfloop", 3, "size", 3)
        report = greedy_size_driven(a, p, cfg)
        assert report.chosen_set == {1, 2, 3}
        assert report.output_size == 3
        assert report.error_bound == pytest.approx(8 / 27 + 2 / 9, abs=1e-12)
        assert distance(a, report.reduced, p) <= report.error_bound + 1e-12

    def test_multi_initial_selfloop_floor(self):
        # with several initial states the self-loop reduction bottoms out
        # at |I| states rather than 1
        a = Nfa(4, AB, [(0, "a", 2), (1, "b", 2), (2, "a", 3)], [0, 1], [3])
        cfg = ReductionConfig("selfloop", 2, "size", 1)
        report = greedy_size_driven(a, p_exp_ab(), cfg)
        assert report.output_size == len(a.initial)


class TestGreedyErrorDriven:
    def test_zero_budget_keeps_language(self):
        a = a2()
        p = p_exp_ab()
        cfg = ReductionConfig("prune", 3, "error", 0.0)
        report = greedy_error_driven(a, p, cfg)
        assert report.reduced == a
        assert report.error_bound == 0.0

    def test_worked_trace(self):
        a = a2()
        cfg = ReductionConfig("prune", 3, "error", 0.05)
        report = greedy_error_driven(a, p_exp_ab(), cfg)
        assert report.chosen_set == {1, 2}
        assert report.output_size == 2
        assert lang_upto(report.reduced, 4) == {("b",)}
        assert report.error_bound == pytest.approx(1 / 27, abs=1e-12)

    def test_full_budget_prunes_everything(self):
        a = a2()
        cfg = ReductionConfig("prune", 3, "error", 1.0)
        report = greedy_error_driven(a, p_exp_ab(), cfg)
        assert report.output_size == 0

    def test_budget_respected_random(self):
        rng = random.Random(52)
        for _ in range(25):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            budget = rng.random()
            kind = rng.choice(("prune", "selfloop"))
            cfg = ReductionConfig(kind, rng.choice((1, 2, 3)), "error", budget)
            report = greedy_error_driven(a, p, cfg)
            assert report.error_bound <= budget + 1e-12
            assert distance(a, report.reduced, p) <= report.error_bound + 1e-9


class TestDistance:
    def test_reflexive(self):
        a = a2()
        assert distance(a, a, p_exp_ab()) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_star_vs_suffix(self):
        universal = Nfa(1, AB, [(0, s, 0) for s in AB], [0], [0])
        a_star = Nfa(2, AB, [(0, "a", 1)] + [(1, s, 1) for s in AB], [0], [1])
        assert distance(universal, a_star, p_exp_ab()) == pytest.approx(
            2 / 3, abs=1e-9)

    def test_worked_selfloop_distance(self):
        a = a2()
        assert distance(a, reduce_selfloop(a, [1]), p_exp_ab()) == \
            pytest.approx(8 / 27, abs=1e-12)

    def test_mass_far_below_either_language(self):
        # L1 = Sigma* a + {b^40} and L2 = Sigma* a differ in the one word
        # b^40, of probability 3^-41 (to 2e-15, as the model's 1/3 is
        # rounded); inclusion-exclusion over the two languages of mass 1/2
        # cancels it to 0
        sigma_star_a = [(0, s, 0) for s in AB] + [(0, "a", 1)]
        b40 = [(2 + i, "b", 3 + i) for i in range(40)]
        a1 = Nfa(43, AB, sigma_star_a + b40, [0, 2], [1, 42])
        a2 = Nfa(2, AB, sigma_star_a, [0], [1])
        assert distance(a1, a2, p_exp_ab()) == pytest.approx(
            1 / 3 ** 41, rel=1e-12, abs=0.0)

    def test_matches_symmetric_difference_enumeration(self):
        rng = random.Random(58)
        for _ in range(15):
            p = random_pa(rng, max_states=4, alphabet=AB)
            x = random_nfa(rng, max_states=5, alphabet=AB)
            y = random_nfa(rng, max_states=5, alphabet=AB)
            d = distance(x, y, p)
            from nfareduce import word_prob
            lower = sum(word_prob(p, w) for w in words_upto(AB, 12)
                        if accepts(x, w) != accepts(y, w))
            covered = sum(word_prob(p, w) for w in words_upto(AB, 12))
            tail = max(0.0, 1.0 - covered)
            assert lower - 1e-9 <= d <= lower + tail + 1e-9

    def test_symmetry_and_triangle(self):
        rng = random.Random(53)
        for _ in range(12):
            p = random_pa(rng)
            xs = [random_nfa(rng, max_states=5, alphabet=p.alphabet)
                  for _ in range(3)]
            d01 = distance(xs[0], xs[1], p)
            d10 = distance(xs[1], xs[0], p)
            assert d01 == pytest.approx(d10, abs=1e-9)
            d02 = distance(xs[0], xs[2], p)
            d12 = distance(xs[1], xs[2], p)
            assert d02 <= d01 + d12 + 1e-9


class TestConditionC1:
    def test_soundness_random(self):
        rng = random.Random(54)
        for _ in range(60):
            p = random_pa(rng)
            a = random_nfa(rng, alphabet=p.alphabet)
            v = set(rng.sample(range(a.num_states),
                               k=rng.randint(0, a.num_states)))
            if rng.random() < 0.5:
                lab = label_prune(a, p, rng.choice((1, 2, 3)))
                bound = err_prune(a, v, lab)
                red = reduce_prune(a, v)
            else:
                lab = label_selfloop(a, p, rng.choice((1, 2, 3)))
                bound = err_selfloop(a, v, lab)
                red = reduce_selfloop(a, v)
            assert bound + 1e-9 >= distance(a, red, p)

    def test_reduce_all(self):
        rng = random.Random(55)
        for _ in range(20):
            a = random_nfa(rng)
            assert reduce_prune(a, range(a.num_states)).num_states == 0
            floor = max(1, len(a.initial))
            assert reduce_selfloop(a, range(a.num_states)).num_states <= floor

    def test_reduce_nothing(self):
        rng = random.Random(56)
        for _ in range(20):
            a = random_nfa(rng)
            assert reduce_prune(a, set()) == a
            assert reduce_selfloop(a, set()) == a

    def test_directions(self):
        rng = random.Random(57)
        for _ in range(25):
            a = random_nfa(rng, max_states=6)
            v = set(rng.sample(range(a.num_states),
                               k=rng.randint(0, a.num_states)))
            pruned = reduce_prune(a, v)
            looped = reduce_selfloop(a, v)
            for w in words_upto(a.alphabet, 4):
                if accepts(pruned, w):
                    assert accepts(a, w)
                if accepts(a, w):
                    assert accepts(looped, w)


class TestConfigValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ReductionConfig("fold", 1, "size", 2)

    def test_bad_size_param(self):
        for param in (0, 2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="size mode needs an integer "
                                                 "state bound >= 1"):
                ReductionConfig("prune", 1, "size", param)

    def test_bad_error_param(self):
        with pytest.raises(ValueError):
            ReductionConfig("prune", 1, "error", 1.5)

