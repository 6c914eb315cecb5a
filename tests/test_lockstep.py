"""The lockstep traffic layer against per-word oracles on random small
automata and corpora.

``traffic_error`` steps every word at once through lazily filled subset
tables; the oracle is ``accepts`` run word by word.  ``count_events`` steps
every word at once through the skeleton's dense table; the oracle is the
per-word counting loop.  Both string and byte alphabets are drawn, as text
and binary corpora give them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import Nfa, accepts, count_events, traffic_error

from util import per_word_count_events

ALPHABETS = [("b", "a"), (0x62, 0x00, 0xFF)]

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def nfas(draw, alphabet):
    """A random NFA with up to 6 states, any number of initial states, and
    few enough transitions that many runs die early."""
    n = draw(st.integers(0, 6))
    if n == 0:
        return Nfa(0, alphabet)
    states = st.integers(0, n - 1)
    transitions = draw(st.lists(st.tuples(states, st.sampled_from(alphabet),
                                          states), max_size=16))
    return Nfa(n, alphabet, transitions, draw(st.frozensets(states)),
               draw(st.frozensets(states)))


@st.composite
def skeletons(draw, alphabet):
    """A random complete DFA with 1-5 states."""
    n = draw(st.integers(1, 5))
    states = st.integers(0, n - 1)
    transitions = [(q, sym, draw(states)) for q in range(n)
                   for sym in alphabet]
    return Nfa(n, alphabet, transitions, [draw(states)],
               draw(st.frozensets(states)))


@st.composite
def corpora(draw, alphabet):
    """1-20 words of length 0-7, drawn from a pool of up to 8 words, so
    that empty and duplicated words are common."""
    word = st.lists(st.sampled_from(alphabet), max_size=7).map(tuple)
    pool = draw(st.lists(word, min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))


@st.composite
def eval_cases(draw):
    alphabet = draw(st.sampled_from(ALPHABETS))
    # the second automaton lists the same symbols in another order
    other = tuple(draw(st.permutations(alphabet)))
    return (draw(nfas(alphabet)), draw(nfas(other)),
            draw(corpora(alphabet)))


@st.composite
def learn_cases(draw):
    alphabet = tuple(draw(st.permutations(draw(st.sampled_from(ALPHABETS)))))
    return draw(skeletons(alphabet)), draw(corpora(alphabet))


@SETTINGS
@given(eval_cases())
def test_traffic_error_matches_per_word_accepts(case):
    a, b, sample = case
    mismatches = sum(accepts(a, w) != accepts(b, w) for w in sample)
    assert traffic_error(a, b, sample) == (mismatches, len(sample),
                                           mismatches / len(sample))


@SETTINGS
@given(learn_cases())
def test_count_events_matches_per_word_loop(case):
    skeleton, corpus = case
    got = count_events(skeleton, corpus)
    want = per_word_count_events(skeleton, corpus)
    assert [x.tolist() for x in got] == [x.tolist() for x in want]


@SETTINGS
@given(eval_cases(), st.data())
def test_foreign_symbol_anywhere_is_rejected(case, data):
    a, b, sample = case
    i = data.draw(st.integers(0, len(sample) - 1))
    j = data.draw(st.integers(0, len(sample[i])))
    foreign = data.draw(st.sampled_from(["z", 300, -1, 0x61, None]))
    sample[i] = sample[i][:j] + (foreign,) + sample[i][j:]
    with pytest.raises(ValueError, match="not in alphabet"):
        traffic_error(a, b, sample)
    with pytest.raises(ValueError, match="not in skeleton alphabet"):
        count_events(data.draw(skeletons(a.alphabet)), sample)
