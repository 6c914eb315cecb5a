"""The labelling engine against the per-state oracle it replaces.

The engine reads p1, p2, sl1 and sl2 off one determinization and one
PA x DFA product per component; the oracle in ``util`` runs one language
probability per final state, final set or state.  p3 and sl3 take one
``prob_lang`` of a trimmed through-state acceptor per state, on its DFA;
their oracle takes the untrimmed acceptor, determinized only when it is
ambiguous, on a trimmed product.  The two sides solve different products,
so they agree to round-off: 1e-12 relative.  sl3 is a difference, sl2
less the words through q, so its round-off is that of the sl2 it is taken
from.  Every product the labellings and ``distance`` build is on a DFA.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import (components, distance, label_prune, label_selfloop,
                       labels, langprob, nfa)

from util import BA, nfas, oracle_labels, random_pa, trapped_nfas

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# a random valid PA over BA with 1-3 states, drawn by seed
pas = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_pa(random.Random(seed), max_states=3, alphabet=BA))


@SETTINGS
@given(nfas(), pas)
def test_prune_labels_match_oracle(a, p):
    for variant in (1, 2, 3):
        got = label_prune(a, p, variant).values
        want = oracle_labels(a, p, "prune", variant)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@SETTINGS
@given(nfas(), pas)
def test_selfloop_labels_match_oracle(a, p):
    for variant in (1, 2):
        got = label_selfloop(a, p, variant).values
        want = oracle_labels(a, p, "selfloop", variant)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    sl2 = want
    got = label_selfloop(a, p, 3).values
    want = oracle_labels(a, p, "selfloop", 3)
    for q, (x, y) in enumerate(zip(got, want)):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-12 * sl2[q])


@pytest.mark.parametrize("kind, variant", [("prune", 1), ("prune", 2),
                                           ("selfloop", 1), ("selfloop", 2)])
def test_one_determinization_per_component(monkeypatch, kind, variant):
    calls = []
    determinize_with_subsets = nfa.determinize_with_subsets

    def counted(a, cap=nfa.DEFAULT_DET_CAP):
        calls.append(a.num_states)
        return determinize_with_subsets(a, cap)

    # every binding: the engine's, and the one behind nfa.determinize
    for module in (nfa, labels):
        monkeypatch.setattr(module, "determinize_with_subsets", counted)
    rng = random.Random(7)
    p = random_pa(rng, max_states=3, alphabet=BA)
    a = nfa.union(*(nfa.trim(nfa.Nfa(4, BA, [(0, "a", 1), (0, "a", 2),
                                              (1, "b", 3), (2, "b", 3),
                                              (3, s, 0)], [0], [3]))
                    for s in BA))
    assert len(components(a)) == 2
    fn = label_prune if kind == "prune" else label_selfloop
    fn(a, p, variant)
    assert calls == [4, 4]


def deterministic(a):
    return len(a.initial) <= 1 and all(len(dsts) == 1
                                       for q in range(a.num_states)
                                       for _sym, dsts in a.moves(q))


@SETTINGS
@given(st.one_of(nfas(), trapped_nfas()), st.one_of(nfas(), trapped_nfas()),
       pas)
def test_every_product_is_on_a_dfa(a1, a2, p):
    operands = []
    product_pa_nfa = langprob.product_pa_nfa

    def checked(p, a):
        operands.append(a)
        return product_pa_nfa(p, a)

    with mock.patch.object(langprob, "product_pa_nfa", checked), \
            mock.patch.object(labels, "product_pa_nfa", checked):
        for variant in (1, 2, 3):
            label_prune(a1, p, variant)
            label_selfloop(a1, p, variant)
        distance(a1, a2, p)
    assert operands
    assert all(deterministic(a) for a in operands)
