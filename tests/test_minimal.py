"""``langprob._minimal``, the Moore minimization ``distance`` solves on,
against table filling (``util.table_filling_size``).

The inputs are the symmetric-difference DFAs of random NFA pairs, as
``distance`` fills them (``nfa._DifferenceTable``).  The result must have
the oracle's number of states and the input's language, and where no two
states merge it must be the input's DFA itself, store order and all, so
that the distance keeps its bits.  ``distance``'s ``det_cap`` must count
the pairs as ``_explore`` does.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import (DeterminizationCapError, Nfa, determinize, distance,
                       make_p_exp)
from nfareduce.langprob import _minimal
from nfareduce.nfa import DEFAULT_DET_CAP, _DifferenceTable

from util import (AB, ABC, BA, a2, nfas, random_nfa, random_pa,
                  same_automaton, symmetric_difference, table_filling_size,
                  trapped_nfas)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def explored(a1, a2):
    """The table and final flags of the symmetric-difference DFA of ``a1``
    and ``a2``, dead state 0 included, as ``distance`` passes them to
    ``_minimal``."""
    return _DifferenceTable(a1, a2, DEFAULT_DET_CAP).fill()


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
        table, final = explored(a, b)
        sizes.append(len(table) - 1)
        assert _minimal(a, table, final) == Nfa(1, ABC, (), [0])
        assert distance(a, b, random_pa(rng, max_states=3)) == 0.0
    # the pairs explored first are not all trivially one state
    assert max(sizes) > 1


def test_without_merges_the_explored_dfa_is_kept():
    # a2() accepts {ab, b} and the other side ab*, so the symmetric
    # difference is {a, b} and ab{2,}: its five pairs of subsets are told
    # apart from one another, and each reaches a final pair
    star = Nfa(2, AB, [(0, "a", 1), (1, "b", 1)], [0], [1])
    table, final = explored(a2(), star)
    raw = symmetric_difference(a2(), star)
    assert table_filling_size(raw) == len(table) - 1 == 5
    assert same_automaton(_minimal(a2(), table, final), raw)


@SETTINGS
@given(st.one_of(nfas(), trapped_nfas()), st.one_of(nfas(), trapped_nfas()),
       st.data())
def test_det_cap_counts_the_pairs_explore_counts(a1, a2, data):
    n = symmetric_difference(a1, a2).num_states
    cap = data.draw(st.integers(1, n + 1))
    p = make_p_exp(BA)
    if cap < n:
        with pytest.raises(DeterminizationCapError):
            distance(a1, a2, p, det_cap=cap)
    else:
        assert distance(a1, a2, p, det_cap=cap) >= 0.0
