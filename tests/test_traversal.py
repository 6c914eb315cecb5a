"""Reachability, trimming, survivors and components against a naive
fixed-point oracle on random small automata."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import (Nfa, components, coreach, prune_survivors, reach,
                       selfloop_survivors, self_loop, trim_survivors)

from util import AB, naive_closure, naive_components, naive_trim_survivors


@st.composite
def nfa_and_set(draw):
    """A random NFA over {a, b} with up to 7 states, and a random set v
    of its states."""
    n = draw(st.integers(0, 7))
    states = st.integers(0, n - 1) if n else st.nothing()
    subset = st.frozensets(states) if n else st.just(frozenset())
    transitions = draw(st.lists(st.tuples(states, st.sampled_from(AB),
                                          states), max_size=20)
                       if n else st.just([]))
    a = Nfa(n, AB, transitions, draw(subset), draw(subset))
    return a, draw(subset)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nfa_and_set())
def test_traversals_match_fixed_point(case):
    a, v = case
    pairs = {(s, d) for s, _, d in a.transitions()}
    assert reach(a, v) == naive_closure(v, pairs)
    assert coreach(a, v) == naive_closure(v, {(d, s) for s, d in pairs})
    assert trim_survivors(a) == naive_trim_survivors(a)
    assert prune_survivors(a, v) == naive_trim_survivors(a, v)
    assert selfloop_survivors(a, v) == naive_trim_survivors(self_loop(a, v))
    assert components(a) == naive_components(a)
