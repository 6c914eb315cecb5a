"""Symbol classes (``langprob._quotient``) against 40-digit references.

The automata are drawn over six symbols: two or three base symbols, whose
moves the others copy, so that their classes really merge.  The models are
drawn over those six symbols and over a permutation of them; the quotient
takes its operands in one alphabet order, so they are aligned first
(``langprob._aligned``), as the library does.  ``prob_lang`` and
``distance``, which quotient their automata, are held to ``util.mp_lang``
and ``util.mp_distance``, which see every symbol.  Where every class is
one symbol, the quotient returns its inputs themselves.

A model over a permutation of SIX changes no bit of ``prob_lang``,
``distance`` or any of the six labellings: the library aligns it to the
automaton's order before any sum over its weights.
"""

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from nfareduce import (Nfa, Pa, distance, label_prune, label_selfloop,
                       langprob, prob_lang)

from util import mp_distance, mp_lang, random_pa

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

SIX = ("a", "b", "c", "d", "e", "f")
# below any distance these instances produce, above the reference's own
# 40-digit round-off when two languages are equal
ZERO_FLOOR = 1e-30


@st.composite
def copy_maps(draw):
    """Each symbol of SIX mapped to the base symbol whose moves it takes:
    the first two or three symbols are the base, and each other symbol
    copies one of them."""
    base = draw(st.integers(2, 3))
    copied = draw(st.lists(st.integers(0, base - 1), min_size=6 - base,
                           max_size=6 - base))
    return {sym: SIX[k] for sym, k in zip(SIX, list(range(base)) + copied)}


@st.composite
def copied_nfas(draw, copy_of, alphabet=SIX, max_states=5):
    """An NFA over ``alphabet``, an order of SIX, with up to
    ``max_states`` states, drawn over the base symbols of ``copy_of``,
    each other symbol taking the moves of its base symbol.  Every base
    symbol has a move, so its copies share its class: a symbol without
    moves stays a class of its own."""
    n = draw(st.integers(1, max_states))
    states = st.integers(0, n - 1)
    base = sorted(set(copy_of.values()), key=SIX.index)
    moves = [(draw(states), b, draw(states)) for b in base]
    moves += draw(st.lists(st.tuples(states, st.sampled_from(base), states),
                           max_size=3 * n))
    transitions = [(q, sym, d) for q, b, d in moves
                   for sym in SIX if copy_of[sym] == b]
    return Nfa(n, alphabet, transitions,
               draw(st.frozensets(states, min_size=1)),
               draw(st.frozensets(states)))


@st.composite
def six_pas(draw):
    """A random valid PA over SIX, or the same PA over a permutation of
    SIX."""
    p = random_pa(random.Random(draw(st.integers(0, 2 ** 32 - 1))),
                  max_states=2, alphabet=SIX)
    order = draw(st.permutations(SIX))
    return Pa(order, p.initial, p.final, p.entries())


@st.composite
def instances(draw):
    """Two automata with one copy map, the second over SIX or a
    permutation of it, and a model."""
    copy_of = draw(copy_maps())
    order = draw(st.sampled_from([SIX, SIX[::-1]]))
    return (draw(copied_nfas(copy_of)), draw(copied_nfas(copy_of, order)),
            draw(six_pas()))


@SETTINGS
@given(instances())
def test_classes_keep_prob_lang_and_distance(instance):
    a1, a2, p = instance
    pc, (b1, b2) = langprob._quotient(langprob._aligned(p, a1),
                                      [a1, langprob._aligned(a2, a1)])
    assert len(pc.alphabet) < len(SIX)
    assert b1.alphabet == b2.alphabet == pc.alphabet
    for a in (a1, a2):
        assert prob_lang(p, a) == pytest.approx(float(mp_lang(p, a)),
                                                rel=1e-12, abs=0.0)
    assert distance(a1, a2, p) == pytest.approx(mp_distance(p, a1, a2),
                                                rel=1e-12, abs=ZERO_FLOOR)


def outputs(a1, a2, p):
    """``prob_lang`` of ``a1``, ``distance`` and the six labellings of
    ``a1`` under ``p``."""
    return ([prob_lang(p, a1), distance(a1, a2, p)]
             + [fn(a1, p, variant).values
                for fn in (label_prune, label_selfloop)
                for variant in (1, 2, 3)])


# hypothesis 6.155's explain phase fails an assertion of its own on a
# failing example here, which would hide the example
@settings(SETTINGS, phases=[ph for ph in Phase if ph is not Phase.explain])
@given(instances(), st.integers(0, 2 ** 32 - 1), st.permutations(SIX))
def test_a_permuted_model_changes_no_bits(instance, seed, order):
    a1, a2, _ = instance
    p = random_pa(random.Random(seed), max_states=2, alphabet=SIX)
    permuted = Pa(order, p.initial, p.final, p.entries())
    assert outputs(a1, a2, permuted) == outputs(a1, a2, p)


def test_a_quotient_without_merges_returns_its_inputs():
    # a and b move differently from state 0, and c and d have no moves
    # at all, so each symbol is a class of its own
    a = Nfa(2, ("a", "b", "c", "d"), [(0, "a", 1), (0, "b", 0), (1, "a", 1)],
            [0], [1])
    p = random_pa(random.Random(7), max_states=2, alphabet=a.alphabet)
    automata = [a]
    pc, got = langprob._quotient(p, automata)
    assert pc is p and got is automata
