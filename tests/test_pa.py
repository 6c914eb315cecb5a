"""Probabilistic automata: the transition store, validation, support, word
values, P_exp."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import (Nfa, Pa, Ppa, make_p_exp, support, trim_survivors,
                       validate_pa, word_prob)
from nfareduce.langprob import _continuation_mass, _solve

from util import (AB, ABC, BA, DictPpa, naive_total_mass, random_pa,
                  word_weight, words_upto)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


class TestValidate:
    def test_p_exp_valid(self):
        assert validate_pa(make_p_exp(AB)) == []

    def test_initial_mass_violation(self):
        p = Pa(AB, [0.5, 0.4], [0.5, 1.0],
               [(0, "a", 1, 0.5)])
        diags = validate_pa(p)
        assert any("initial weights" in d for d in diags)

    def test_outgoing_mass_violation(self):
        p = Pa(AB, [1.0, 0.0], [0.2, 1.0],
               [(0, "a", 1, 0.6), (0, "b", 1, 0.5)])
        diags = validate_pa(p)
        assert any("accept-or-leave" in d for d in diags)

    def test_trim_breaking_mass_detected(self):
        # half the outgoing mass points at a state that never accepts,
        # so trimming removes it and condition (ii) must fail
        p = Pa(AB, [1.0, 0.0], [0.5, 0.0], [(0, "a", 1, 0.5)])
        assert p.num_states == 1
        assert any("accept-or-leave" in d for d in validate_pa(p))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Pa(AB, [1.0], [2.0], [(0, "a", 0, -1.0)])


class TestSupport:
    def test_p_exp_support(self):
        s = support(make_p_exp(AB))
        assert s == Nfa(1, AB, [(0, "a", 0), (0, "b", 0)], [0], [0])

    def test_zero_final_vector(self):
        p = Ppa(AB, [1.0], [0.0], [(0, "a", 0, 0.5)])
        assert support(p).final == frozenset()

    def test_strict_positivity(self):
        p = Ppa(AB, [1.0, 0.0], [1e-300, 0.0],
                [(0, "a", 1, 0.0), (0, "b", 1, 1e-300)])
        s = support(p)
        assert s.succ(0, "a") == ()
        assert s.succ(0, "b") == (1,)
        assert s.final == frozenset({0})

    def test_auto_trim(self):
        # state 2 is unreachable with positive weight; Pa drops it
        p = Pa(AB, [1.0, 0.0, 0.0], [0.5, 1.0, 1.0],
               [(0, "a", 1, 0.5)])
        assert p.num_states == 2
        assert validate_pa(p) == []


class TestWordValues:
    def test_p_exp_formula(self):
        p = make_p_exp(AB)
        assert word_prob(p, ("a", "b")) == pytest.approx((1 / 3) ** 3, abs=1e-15)
        assert word_prob(p, ()) == pytest.approx(1 / 3, abs=1e-15)

    def test_unary_alphabet(self):
        p = make_p_exp(("a",))
        for n in range(6):
            assert word_prob(p, ("a",) * n) == pytest.approx(
                2.0 ** -(n + 1), abs=1e-15)

    def test_subprobability(self):
        rng = random.Random(21)
        for _ in range(5)[:5]:
            p = random_pa(rng, max_states=3, alphabet=AB)
            total = naive_total_mass(p, AB, 8)
            assert total <= 1.0 + 1e-9

    def test_word_weight(self):
        p = make_p_exp(AB)
        assert word_weight(p, ("a",)) == pytest.approx(1 / 3, abs=1e-15)

    def test_weight_of_epsilon_is_one(self):
        rng = random.Random(22)
        for _ in range(10):
            p = random_pa(rng)
            assert word_weight(p, ()) == pytest.approx(1.0, abs=1e-12)

    def test_weight_dominates_prob(self):
        rng = random.Random(23)
        for _ in range(10):
            p = random_pa(rng)
            for w in words_upto(ABC, 3):
                assert word_weight(p, w) >= word_prob(p, w) - 1e-12

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            word_prob(make_p_exp(AB), ("z",))


class TestPExp:
    def test_mu_values(self):
        for alphabet in (("a",), AB, ABC):
            p = make_p_exp(alphabet)
            assert validate_pa(p) == []
            mu = 1 / (len(alphabet) + 1)
            assert p.final[0] == pytest.approx(mu, abs=1e-15)

    def test_total_mass_geometric(self):
        # the truncated mass of p_exp has the closed form 1 - (2/3)^(L+1),
        # so the full series sums to 1
        p = make_p_exp(AB)
        for cut in (0, 3, 10):
            total = naive_total_mass(p, AB, cut)
            assert total == pytest.approx(1.0 - (2 / 3) ** (cut + 1),
                                          abs=1e-12)


class TestInvariants:
    def test_truncated_mass_monotone_bounded(self):
        rng = random.Random(24)
        for _ in range(8):
            p = random_pa(rng, max_states=4, alphabet=AB)
            prev = 0.0
            for cut in range(7):
                cur = naive_total_mass(p, AB, cut)
                assert cur >= prev - 1e-12
                assert cur <= 1.0 + 1e-9
                prev = cur

    def test_support_of_valid_pa_is_trim(self):
        rng = random.Random(25)
        for _ in range(20):
            s = support(random_pa(rng))
            assert trim_survivors(s) == set(range(s.num_states))

    def test_matrix_chaining_associative(self):
        rng = random.Random(26)
        for _ in range(10):
            p = random_pa(rng, max_states=4)
            n = p.num_states
            mats = {}
            for sym in p.alphabet:
                m = np.zeros((n, n))
                for src in range(n):
                    for dst, w in p.row(sym, src).items():
                        m[src, dst] = w
                mats[sym] = m
            u = tuple(rng.choice(p.alphabet) for _ in range(3))
            v = tuple(rng.choice(p.alphabet) for _ in range(2))
            alpha = np.array(p.initial)
            phi = np.array(p.final)
            left = alpha.copy()
            for sym in u:
                left = left @ mats[sym]
            right = phi.copy()
            for sym in reversed(v):
                right = mats[sym] @ right
            assert float(left @ right) == pytest.approx(
                word_prob(p, u + v), abs=1e-12)


@st.composite
def quadruples(draw):
    """(alphabet, states, transitions): random quadruples over AB in
    either order, then some of them again, once with weight zero and once
    with a new weight.  Weights are multiples of 1/56 up to 1/8, so a
    state's six possible transitions weigh less than 1 and I - T is
    nonsingular."""
    n = draw(st.integers(1, 3))
    states = st.integers(0, n - 1)
    weight = st.integers(0, 7).map(lambda k: k / 56)
    quads = draw(st.lists(st.tuples(states, st.sampled_from(AB), states,
                                    weight), max_size=16))
    again = draw(st.lists(st.sampled_from(quads), max_size=4)) if quads else []
    quads += [(src, sym, dst, 0.0) for src, sym, dst, _w in again]
    quads += [(src, sym, dst, draw(weight)) for src, sym, dst, _w in again]
    return draw(st.sampled_from([AB, BA])), n, quads


class TestStore:
    """The edge arrays and rows of ``Ppa`` against the per-symbol dict
    rows they replace."""

    @SETTINGS
    @given(quadruples())
    def test_store_reads_back_as_dict_rows(self, case):
        alphabet, n, quads = case
        final = [(q + 1) / 7 for q in range(n)]
        p = Ppa(alphabet, [1.0] + [0.0] * (n - 1), final, quads)
        want = DictPpa(alphabet, n, quads)
        entries = list(want.entries())
        assert list(p.entries()) == entries
        assert all(type(w) is float for *_rest, w in p.entries())
        for q in range(n):
            assert p.out_mass(q) == want.out_mass(q)
            for sym in alphabet:
                assert p.row(sym, q) == want.row(sym, q)
        # the solve on the entries as lists, as z was first computed
        src, dst, weight = ([e[i] for e in entries] for i in (0, 2, 3))
        old = _solve(n, np.array(src, dtype=np.intp),
                     np.array(dst, dtype=np.intp),
                     np.array(weight, dtype=float), np.array(final))
        assert _continuation_mass(p).tobytes() == old.tobytes()

    @pytest.mark.parametrize("quad", [
        (0, "c", 0, 0.5), (0, "a", 2, 0.5), (-1, "a", 0, 0.5),
        (0, "a", 0, -0.5)])
    def test_store_rejects_as_dict_rows(self, quad):
        with pytest.raises(ValueError) as want:
            DictPpa(AB, 2, [quad])
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            Ppa(AB, [1.0, 0.0], [0.5, 0.5], [quad])

    def test_reweighted_model_shares_the_store(self):
        p = make_p_exp(AB)
        pz = p._reweighted([0.75])
        assert pz.final == (0.75,) and p.final == (1 / 3,)
        assert pz.src is p.src and pz.weight is p.weight
        assert pz._rows is p._rows
        assert list(pz.entries()) == list(p.entries())
