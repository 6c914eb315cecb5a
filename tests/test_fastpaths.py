"""The fast paths of the language-probability pipeline against the
constructions they replace, on random small automata and models.

``_explore`` returns its edges as three flat lists and still numbers keys
in discovery order.  ``prob_lang`` tells a deterministic automaton by one
pass over the store; such an automaton is unambiguous by the self-product
oracle.  ``product_pa_nfa`` aligns the PA to the automaton's alphabet
order, numbers its pairs by integers, labels its edges by PA edge and
walks each pair's automaton moves, looking each symbol up in the PA row;
the oracle builds a ``Ppa`` transition by transition, and the two must
agree bit for bit, entry for entry in whatever order the product meets
them, on hypothesis' small PAs and on a seeded 40-state NFA with pairs
where either side has fewer symbols.  Neither order leaves anything on
the PA.
The subset construction and ``through_state`` fill the transition store
without re-validation; rebuilding them through ``Nfa.__init__`` must give
the same automaton.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import Nfa, Ppa, determinize, product_pa_nfa, through_state
from nfareduce.errors import DeterminizationCapError
from nfareduce.langprob import _deterministic
from nfareduce.nfa import _explore

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
    # the same entries, in the order the product met them
    assert sorted(arrays, key=entry_key(a)) == list(want.entries())


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


def test_explore_numbers_keys_in_discovery_order():
    def step(k):
        yield "x", 2 * k % 10
        yield "y", (2 * k + 1) % 10

    keys, (src, labels, dst) = _explore([3, 3, 1], step, cap=10)
    assert keys == [3, 1, 6, 7, 2, 4, 5, 8, 9, 0]
    assert src == [i for i in range(10) for _ in "xy"]
    assert labels == ["x", "y"] * 10
    assert dst == [keys.index(d) for k in keys
                   for d in (2 * k % 10, (2 * k + 1) % 10)]
    with pytest.raises(DeterminizationCapError):
        _explore([3, 3, 1], step, cap=9)


def seeded_product_case(seed=20):
    """A 40-state NFA over eight symbols, with four initial states and one
    to three successors per symbol, and a 5-state PPA whose states move
    on eight, four, two, one and no symbols, so that the product has
    pairs where either side has fewer symbols than the other."""
    rng = random.Random(seed)
    syms = tuple("abcdefgh")
    n = 40
    transitions = [(q, sym, d) for q in range(n)
                   for sym in rng.sample(syms, rng.randint(1, len(syms)))
                   for d in rng.sample(range(n), rng.randint(1, 3))]
    a = Nfa(n, syms, transitions, rng.sample(range(n), 4),
            rng.sample(range(n), 10))
    weights = [(qp, sym, qp2, rng.randint(1, 8) / 64)
               for qp, k in enumerate((8, 4, 2, 1, 0))
               for sym in rng.sample(syms, k)
               for qp2 in rng.sample(range(5), rng.randint(1, 3))]
    p = Ppa(syms, [0.25, 0.0, 0.5, 0.25, 0.0],
            [0.125, 0.5, 0.25, 0.0, 1.0], weights)
    return p, a


def test_seeded_product_matches_ppa_construction_bit_for_bit():
    p, a = seeded_product_case()
    # the same automaton over the reversed alphabet order
    rev = Nfa(a.num_states, a.alphabet[::-1], a.transitions(), a.initial,
              a.final)
    # alternate the orders on one PPA, so rows kept for the wrong order fail
    for b in (a, rev, a, rev):
        got = product_pa_nfa(p, b)
        want, pair_map = ppa_product(p, b, trimmed=False)
        assert got.pair_map == pair_map
        entries = list(want.entries())
        expected = {
            "initial": np.array(want.initial, dtype=float),
            "final": np.array(want.final, dtype=float),
            "src": np.array([e[0] for e in entries], dtype=np.intp),
            "sym": np.array([b.alphabet.index(e[1]) for e in entries],
                            dtype=np.intp),
            "dst": np.array([e[2] for e in entries], dtype=np.intp),
            "weight": np.array([e[3] for e in entries], dtype=float),
        }
        # the entries come by source, in the order the product met them;
        # sorted as a Ppa numbers its edges, they are the oracle's
        assert np.all(np.diff(got.src) >= 0)
        perm = np.lexsort((got.dst, got.sym, got.src))
        for name, arr in expected.items():
            value = getattr(got, name)
            if name not in ("initial", "final"):
                value = value[perm]
            assert value.dtype == arr.dtype, name
            assert value.tobytes() == arr.tobytes(), name
        # some pairs have fewer PA symbols than moves, and some more
        pa_syms = [sum(1 for sym in p.alphabet if p.row(sym, qp))
                   for qp in range(p.num_states)]
        shorter = {pa_syms[qp] < len(b.moves(qa)) for qp, qa in pair_map
                   if pa_syms[qp] != len(b.moves(qa))}
        assert shorter == {True, False}


def test_products_leave_the_pa_as_built():
    p, a = seeded_product_case()
    rev = Nfa(a.num_states, a.alphabet[::-1], a.transitions(), a.initial,
              a.final)
    before = [getattr(p, slot) for slot in Ppa.__slots__]
    for b in (a, rev, a):
        product_pa_nfa(p, b)
    assert all(getattr(p, slot) is value
               for slot, value in zip(Ppa.__slots__, before))
