"""The fast paths of the language-probability pipeline against the
constructions they replace, on random small automata and models.

``prob_lang`` tells a deterministic automaton by one pass over the store;
such an automaton is unambiguous by the self-product oracle.
``product_pa_nfa`` writes its entries straight to arrays; the oracle
builds a ``Ppa`` transition by transition.  The subset construction and
``through_state`` fill the transition store without re-validation;
rebuilding them through ``Nfa.__init__`` must give the same automaton.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import Nfa, Ppa, determinize, product_pa_nfa, through_state
from nfareduce.langprob import _deterministic

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
@given(dfas())
def test_deterministic_automata_are_unambiguous(a):
    assert _deterministic(a)
    assert self_product_unambiguous(a)


@SETTINGS
@given(ppas(), nfas())
def test_pa_product_matches_ppa_construction(p, a):
    got = product_pa_nfa(p, a)
    want, pair_map = ppa_product(p, a, trimmed=False)
    assert got.pair_map == pair_map
    assert got.ppa.initial == want.initial
    assert got.ppa.final == want.final
    assert list(got.ppa.entries()) == list(want.entries())
    arrays = list(zip(got.src.tolist(),
                      [a.alphabet[k] for k in got.sym.tolist()],
                      got.dst.tolist(), got.weight.tolist()))
    assert arrays == list(want.entries())


@SETTINGS
@given(nfas(min_states=1), st.data())
def test_direct_built_automata_equal_validated_ones(a, data):
    q = data.draw(st.integers(0, a.num_states - 1))
    for x in (determinize(a), through_state(a, q)):
        rebuilt = Nfa(x.num_states, x.alphabet, x.transitions(), x.initial,
                      x.final)
        assert x == rebuilt
        triples = list(x.transitions())
        assert triples == sorted(triples, key=entry_key(x))
        assert triples == list(rebuilt.transitions())
