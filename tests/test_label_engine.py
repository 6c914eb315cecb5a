"""The labelling engine against the per-state oracle it replaces.

The engine reads p1, p2, sl1 and sl2 off one determinization and one
PA x DFA product per component; the oracle in ``util`` runs one language
probability per final state, final set or state.  Both use the library's
solver on different products, so they agree to round-off: 1e-12 relative.
sl3 is a difference, sl2 less the words through q, so its round-off is
that of the sl2 it is taken from.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import components, label_prune, label_selfloop, labels, nfa

from util import BA, nfas, oracle_labels, random_pa

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# a random valid PA over BA with 1-3 states, drawn by seed
pas = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_pa(random.Random(seed), max_states=3, alphabet=BA))


@SETTINGS
@given(nfas(), pas, st.booleans())
def test_prune_labels_match_oracle(a, p, by_component):
    for variant in (1, 2, 3):
        got = label_prune(a, p, variant, by_component=by_component).values
        want = oracle_labels(a, p, "prune", variant, by_component)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@SETTINGS
@given(nfas(), pas, st.booleans())
def test_selfloop_labels_match_oracle(a, p, by_component):
    for variant in (1, 2):
        got = label_selfloop(a, p, variant, by_component=by_component).values
        want = oracle_labels(a, p, "selfloop", variant, by_component)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    sl2 = want
    got = label_selfloop(a, p, 3, by_component=by_component).values
    want = oracle_labels(a, p, "selfloop", 3, by_component)
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
    calls.clear()
    fn(a, p, variant, by_component=False)
    assert calls == [8]
