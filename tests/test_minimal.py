"""``langprob._minimal``, the Moore minimization ``distance`` solves on,
against table filling (``util.table_filling_size``).

The inputs are the symmetric-difference DFAs of random NFA pairs, as
``distance`` explores them (``nfa._difference``).  The result must have
the oracle's number of states and the input's language, and where no two
states merge it must be the input's DFA itself, store order and all, so
that the distance keeps its bits.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import Nfa, determinize, distance
from nfareduce.langprob import _minimal
from nfareduce.nfa import _difference, _explore

from util import (AB, ABC, a2, nfas, random_nfa, random_pa, same_automaton,
                  symmetric_difference, table_filling_size, trapped_nfas)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def explored(a1, a2):
    """The states, edges and final states of the symmetric-difference DFA
    of ``a1`` and ``a2``, as ``distance`` passes them to ``_minimal``."""
    start, step, final = _difference(a1, a2)
    pairs, edges = _explore([start], step)
    return len(pairs), edges, [i for i, pair in enumerate(pairs)
                               if final(pair)]


@SETTINGS
@given(st.one_of(nfas(), trapped_nfas()), st.one_of(nfas(), trapped_nfas()))
def test_minimal_matches_table_filling(a1, a2):
    raw = symmetric_difference(a1, a2)
    m = _minimal(a1, *explored(a1, a2))
    size = table_filling_size(raw)
    assert m.num_states == size
    assert m.initial == {0}
    assert all(len(dsts) == 1 for q in range(m.num_states)
               for _sym, dsts in m.moves(q))
    assert not symmetric_difference(m, raw).final
    # a DFA with a final state has an initial state that is not dead
    if size == raw.num_states and raw.final:
        assert same_automaton(m, raw)


def test_equal_languages_leave_the_initial_state_alone():
    rng = random.Random(25)
    sizes = []
    for _ in range(30):
        a = random_nfa(rng, max_states=6)
        b = determinize(a)
        n, edges, final = explored(a, b)
        sizes.append(n)
        assert _minimal(a, n, edges, final) == Nfa(1, ABC, (), [0])
        assert distance(a, b, random_pa(rng, max_states=3)) == 0.0
    # the pairs explored first are not all trivially one state
    assert max(sizes) > 1


def test_without_merges_the_explored_dfa_is_kept():
    # a2() accepts {ab, b} and the other side ab*, so the symmetric
    # difference is {a, b} and ab{2,}: its five pairs of subsets are told
    # apart from one another, and each reaches a final pair
    star = Nfa(2, AB, [(0, "a", 1), (1, "b", 1)], [0], [1])
    n, edges, final = explored(a2(), star)
    raw = symmetric_difference(a2(), star)
    assert table_filling_size(raw) == n == 5
    assert same_automaton(_minimal(a2(), n, edges, final), raw)
