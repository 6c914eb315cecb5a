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

The corpus is encoded in the narrowest unsigned dtype that holds its
numbers, so the boundaries are pinned against the same oracles: the full
byte alphabet with 0x00 and 0xFF payloads, 256 classes, a 300-symbol
string alphabet (uint16), and a foreign byte whose stand-in code is one
past the largest.  A memory guard bounds what the encoding and the steps
allocate per corpus symbol.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import Nfa, accepts, count_events, traffic, traffic_error

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


BYTE_ALPHABET = tuple(range(256))


def byte_words(rng, size, max_len):
    """Random ``bytes`` words over all 256 bytes, about ``size`` bytes in
    all, with a few empty words."""
    words = []
    while size > 0:
        word = rng.randbytes(min(size, rng.randint(0, max_len)))
        words.append(word)
        size -= len(word)
    return words


def distinct_moves(alphabet):
    """Two automata over ``alphabet`` in which every symbol is a class of
    its own: state 0 moves on the i-th symbol to state i + 1, which
    accepts in the first automaton when i is even and in the second when
    i % 3 == 0."""
    n = len(alphabet) + 1
    moves = [(0, sym, i + 1) for i, sym in enumerate(alphabet)]
    moves += [(i + 1, sym, 0) for i, sym in enumerate(alphabet)]
    return (Nfa(n, alphabet, moves, [0], range(1, n, 2)),
            Nfa(n, alphabet, moves, [0], range(1, n, 3)))


def modular_skeleton(alphabet, n=5):
    """A complete DFA that moves from q on the i-th symbol to
    (q * 3 + i) % n."""
    return Nfa(n, alphabet, [(q, sym, (q * 3 + i) % n) for q in range(n)
                             for i, sym in enumerate(alphabet)], [0], [1])


def check_against_oracles(a, b, skeleton, words):
    mismatches = sum(accepts(a, w) != accepts(b, w) for w in words)
    assert traffic_error(a, b, words) == (mismatches, len(words),
                                          mismatches / len(words))
    want = per_word_count_events(skeleton, words)
    got = count_events(skeleton, words)
    assert [x.tolist() for x in got] == [x.tolist() for x in want]


def first_codes(words, alphabet):
    """The dtype ``_lockstep`` encodes ``words`` in, given the alphabet
    indices of ``alphabet``."""
    index = {sym: i for i, sym in enumerate(alphabet)}
    _, codes = next(traffic._lockstep(words, index, "alphabet"))
    return codes.dtype


def test_full_byte_alphabet_with_0x00_and_0xff():
    rng = random.Random(3)
    words = byte_words(rng, 3000, 40)
    words += [b"\x00", b"\xff", b"\x00\xff" * 3, b"\xff\x00\xff", b""]
    a, b = distinct_moves(BYTE_ALPHABET)
    skeleton = modular_skeleton(BYTE_ALPHABET)
    assert first_codes(words, BYTE_ALPHABET) == np.uint8
    check_against_oracles(a, b, skeleton, words)
    check_against_oracles(a, b, skeleton, [tuple(w) for w in words])


def test_every_byte_its_own_class():
    # 256 classes: columns 0..255, every byte in the alphabet, so no code
    # is kept for a foreign byte and uint8 still holds them all
    rng = random.Random(4)
    words = byte_words(rng, 3000, 40) + [b"\xff\x00"]
    a, b = distinct_moves(BYTE_ALPHABET)
    (mismatches, _, _), table = eval_table(a, b, words)
    assert table.table.shape[1] == 256
    assert mismatches == sum(accepts(a, w) != accepts(b, w) for w in words)


def test_string_alphabet_of_300_symbols_takes_uint16():
    alphabet = tuple(f"s{i}" for i in range(300))
    rng = random.Random(5)
    words = [tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
             for _ in range(200)]
    words.append(("s299", "s0", "s256", "s255"))
    assert first_codes(words, alphabet) == np.uint16
    a, b = distinct_moves(alphabet)
    check_against_oracles(a, b, modular_skeleton(alphabet), words)
    _, table = eval_table(a, b, words)
    assert table.table.shape[1] == 300


@pytest.mark.parametrize("alphabet", [
    # 255 bytes: the stand-in code of the foreign byte is 255, in uint8
    tuple(b for b in range(256) if b != 0x80),
    # 255 bytes and a string: 256 numbers, so the stand-in 256 takes uint16
    tuple(b for b in range(256) if b != 0x80) + ("x",),
])
def test_foreign_byte_at_the_dtype_boundary(alphabet):
    a, b = distinct_moves(alphabet)
    skeleton = modular_skeleton(alphabet)
    good = [b"\x00\xff", b"", bytes([0x7F, 0x81])]
    check_against_oracles(a, b, skeleton, good)
    # the first foreign byte in corpus order is reported, not the
    # largest or the first in the longest word
    words = good + [b"\x00\x80", b"\xff" * 5 + b"\x80", b""]
    with pytest.raises(ValueError, match="^symbol 128 not in alphabet$"):
        traffic_error(a, b, words)
    with pytest.raises(ValueError,
                       match="^symbol 128 not in skeleton alphabet$"):
        count_events(skeleton, words)


def test_corpus_memory_per_symbol():
    # about 1 MB over all 256 bytes: the bytes words' one joined copy and
    # their codes take one byte per symbol each, and the per-word arrays a
    # few bytes per word, so 3 bytes per symbol leaves no room for a wider
    # code or a corpus-sized temporary
    rng = random.Random(6)
    words = byte_words(rng, 1 << 20, 500)
    symbols = sum(map(len, words))
    # Σ*AB and Σ*AB | Σ*0xFF: a table of a few rows, so what is measured
    # is the corpus's
    loops = [(0, sym, 0) for sym in BYTE_ALPHABET]
    a = Nfa(3, BYTE_ALPHABET, loops + [(0, 0x41, 1), (1, 0x42, 2)], [0], [2])
    b = Nfa(4, BYTE_ALPHABET, loops + [(0, 0x41, 1), (1, 0x42, 2),
                                       (0, 0xFF, 3)], [0], [2, 3])
    skeleton = modular_skeleton(BYTE_ALPHABET)
    for run in (lambda: count_events(skeleton, words),
                lambda: traffic_error(a, b, words)):
        run()  # imports and lazily built maps are not the corpus's
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / symbols < 3, peak / symbols
