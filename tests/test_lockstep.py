"""The lockstep traffic layer against per-word oracles on random small
automata and corpora.

``traffic_error`` steps every word at once through one lazily filled
table of the symmetric-difference DFA that ``distance`` solves; the
oracles are ``accepts`` run word by word on the two automata and on that
DFA, whose states bound the pairs the table holds.  ``count_events`` steps
every word at once through the skeleton's dense table; the oracle is the
per-word counting loop.  Both string and byte alphabets are drawn, as text
and binary corpora give them, and automata with accept-all states.  Over
byte alphabets, a corpus of ``bytes`` words (the binary reader's form,
encoded by one table lookup) must give what the same words as tuples
(encoded symbol by symbol) give, and a foreign byte the same error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import Nfa, accepts, count_events, traffic_error

from util import (BA, eval_table, per_word_count_events, symmetric_difference,
                  trapped_nfas)

BYTES = (0x62, 0x00, 0xFF)
ALPHABETS = [("b", "a"), BYTES]

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
def trapped_cases(draw):
    return draw(trapped_nfas()), draw(trapped_nfas()), draw(corpora(BA))


@st.composite
def learn_cases(draw):
    alphabet = tuple(draw(st.permutations(draw(st.sampled_from(ALPHABETS)))))
    return draw(skeletons(alphabet)), draw(corpora(alphabet))


@st.composite
def byte_cases(draw):
    """Two automata, a skeleton and a corpus, each over its own order of
    ``BYTES``."""
    alphabets = [tuple(draw(st.permutations(BYTES))) for _ in range(3)]
    return (draw(nfas(alphabets[0])), draw(nfas(alphabets[1])),
            draw(skeletons(alphabets[2])), draw(corpora(alphabets[0])))


@SETTINGS
@given(eval_cases())
def test_traffic_error_matches_per_word_accepts(case):
    a, b, sample = case
    mismatches = sum(accepts(a, w) != accepts(b, w) for w in sample)
    assert traffic_error(a, b, sample) == (mismatches, len(sample),
                                           mismatches / len(sample))


@SETTINGS
@given(st.one_of(eval_cases(), trapped_cases()))
def test_eval_counts_the_words_the_distance_dfa_accepts(case):
    a, b, sample = case
    (mismatches, _, _), table = eval_table(a, b, sample)
    dfa = symmetric_difference(a, b)
    assert mismatches == sum(accepts(dfa, w) for w in sample)
    # every pair a sample reaches is a state of that DFA
    assert len(table.keys) - 1 <= dfa.num_states


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


@SETTINGS
@given(byte_cases())
def test_bytes_words_match_tuple_words(case):
    a, b, skeleton, corpus = case
    as_bytes = [bytes(w) for w in corpus]
    # one tuple word sends the whole corpus symbol by symbol
    mixed = as_bytes[:-1] + corpus[-1:]
    want = traffic_error(a, b, corpus)
    assert traffic_error(a, b, as_bytes) == want
    assert traffic_error(a, b, mixed) == want
    want = [x.tolist() for x in count_events(skeleton, corpus)]
    assert [x.tolist() for x in count_events(skeleton, as_bytes)] == want
    assert [x.tolist() for x in count_events(skeleton, mixed)] == want


@SETTINGS
@given(byte_cases(), st.data())
def test_foreign_byte_anywhere_is_rejected_in_both_forms(case, data):
    a, b, skeleton, corpus = case
    empty = data.draw(st.integers(0, len(corpus)))
    corpus.insert(empty, ())
    # the first word, the last, an empty one, or any
    i = data.draw(st.one_of(st.sampled_from([0, len(corpus) - 1, empty]),
                            st.integers(0, len(corpus) - 1)))
    j = data.draw(st.integers(0, len(corpus[i])))
    corpus[i] = corpus[i][:j] + (0x61,) + corpus[i][j:]
    # a later foreign byte, if any, is not the one reported
    k = data.draw(st.integers(i + 1, len(corpus)))
    if k < len(corpus):
        corpus[k] = (0x63,) + corpus[k]
    for words in corpus, [bytes(w) for w in corpus]:
        with pytest.raises(ValueError, match="^symbol 97 not in alphabet$"):
            traffic_error(a, b, words)
        with pytest.raises(ValueError,
                           match="^symbol 97 not in skeleton alphabet$"):
            count_events(skeleton, words)
