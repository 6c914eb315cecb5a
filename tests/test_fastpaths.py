"""The fast paths of the language-probability pipeline against the
constructions they replace, on random small automata and models.

``is_unambiguous`` answers deterministic automata by one pass over the
store and walks the pair graph otherwise; the oracle builds and trims the
self-product.  ``product_pa_nfa`` writes its entries straight to
arrays; the oracle builds a ``Ppa`` transition by transition.  The subset
construction, the product, ``through_state`` and ``banguage_nfa`` fill the
transition store without re-validation; rebuilding them through
``Nfa.__init__`` must give the same automaton.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import (Nfa, Ppa, banguage_nfa, determinize, is_unambiguous,
                       product, product_pa_nfa, through_state)

from util import BA, dfas, nfas, ppa_product, self_product_unambiguous

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def ppas(draw):
    """A random PPA with 1-3 states, weights in eighths (zeros included),
    over BA in either order."""
    n = draw(st.integers(1, 3))
    states = st.integers(0, n - 1)
    weight = st.integers(0, 4).map(lambda k: k / 8)
    alphabet = draw(st.sampled_from([BA, BA[::-1]]))
    vector = st.lists(weight, min_size=n, max_size=n)
    transitions = draw(st.lists(st.tuples(states, st.sampled_from(BA),
                                          states, weight), max_size=12))
    return Ppa(alphabet, draw(vector), draw(vector), transitions)


def entry_key(a):
    return lambda t: (t[0], a.alphabet.index(t[1]), t[2])


@SETTINGS
@given(nfas())
def test_is_unambiguous_matches_self_product(a):
    assert is_unambiguous(a) == self_product_unambiguous(a)


@SETTINGS
@given(dfas())
def test_deterministic_automata_are_unambiguous(a):
    assert is_unambiguous(a)
    assert self_product_unambiguous(a)


@SETTINGS
@given(ppas(), nfas(), st.sampled_from(["model", "unit"]))
def test_pa_product_matches_ppa_construction(p, a, final_weights):
    got = product_pa_nfa(p, a, final_weights)
    want, pair_map = ppa_product(p, a, final_weights)
    assert got.pair_map == pair_map
    assert got.ppa.initial == want.initial
    assert got.ppa.final == want.final
    assert list(got.ppa.entries()) == list(want.entries())
    arrays = list(zip(got.src.tolist(),
                      [a.alphabet[k] for k in got.sym.tolist()],
                      got.dst.tolist(), got.weight.tolist()))
    assert arrays == list(want.entries())


@SETTINGS
@given(nfas(min_states=1), nfas(), st.data())
def test_direct_built_automata_equal_validated_ones(a, b, data):
    q = data.draw(st.integers(0, a.num_states - 1))
    targets = data.draw(st.frozensets(st.integers(0, a.num_states - 1)))
    for x in (determinize(a), product(a, b), through_state(a, q),
              banguage_nfa(a, targets)):
        rebuilt = Nfa(x.num_states, x.alphabet, x.transitions(), x.initial,
                      x.final)
        assert x == rebuilt
        triples = list(x.transitions())
        assert triples == sorted(triples, key=entry_key(x))
        assert triples == list(rebuilt.transitions())
