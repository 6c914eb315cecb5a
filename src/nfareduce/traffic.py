"""Semi-automatic traffic-model learning and empirical error evaluation.

A hand-written DFA skeleton captures the high-level structure of the
traffic; feeding it a corpus and counting how often every state is reached,
every transition taken, and every word ends in a state turns the skeleton
into a PA in the obvious way.  Unobserved transitions get probability 0 and
vanish from the support; no smoothing is applied, that is a modelling
choice left to the caller.

Both the counting (``count_events``) and the empirical error
(``traffic_error``) run the whole corpus in lockstep.  The corpus is encoded
once into one flat array of alphabet indices, uint8 for up to 256 symbols
and uint16 beyond (a binary corpus's ``bytes`` words by one table lookup,
see ``_lockstep``), with the words ordered longest first, so the words
still running at step t are a prefix; each step is then one gather from the
flat table at ``state * k + symbol`` for all of them.  A binary corpus
costs about 2 bytes of numpy memory per symbol on top of its words: the
joined buffer and the codes.  The skeleton is a complete DFA, so its table
is dense from the start; ``_check_skeleton`` builds it in the one walk
that checks the skeleton.  ``traffic_error`` steps the table of the
symmetric-difference DFA instead (``nfa._DifferenceTable``), the one that
``distance`` fills whole, minimizes and solves, over the symbol classes of
the two automata, with an explicit dead state.  Here its rows are filled
only when a run first reaches them.  Its corpus is encoded as class columns
rather than alphabet indices, so a row holds one entry per class.  Only the
pairs of subsets the corpus leads to are built, at most
``DEFAULT_DET_CAP`` of them, and a word is a mismatch when it ends in a
final pair.
"""

from itertools import chain

import numpy as np

from .langprob import _aligned
from .nfa import DEFAULT_DET_CAP, Nfa, _DifferenceTable, _symbol_classes
from .pa import Pa


def _check_skeleton(skeleton, complete=True):
    """The skeleton's successor table, checked: ``table[q, j]`` is the
    state that ``q`` moves to on the ``j``-th alphabet symbol, -1 where it
    has none.  The skeleton must have one initial state and at most one
    successor per (state, symbol), and with ``complete`` one for each; the
    error names the first (state, symbol) that breaks this, states
    ascending and symbols in alphabet order.  The table is int64, so that
    ``count_events``' key ``source * k + symbol`` cannot overflow."""
    if len(skeleton.initial) != 1:
        raise ValueError("skeleton must have exactly one initial state")
    alphabet = skeleton.alphabet
    table = np.full((skeleton.num_states, len(alphabet)), -1, np.int64)
    for q in range(skeleton.num_states):
        moves = skeleton._delta.get(q, {})
        for j, sym in enumerate(alphabet):
            succ = moves.get(sym, ())
            if len(succ) > 1:
                raise ValueError(
                    f"skeleton is nondeterministic at state {q}, {sym!r}")
            if succ:
                table[q, j] = succ[0]
            elif complete:
                raise ValueError(
                    f"skeleton is incomplete: state {q} has no {sym!r} "
                    "transition (see complete_dfa)")
    return table


def count_events(skeleton, corpus):
    """Run every corpus word through the skeleton, counting transition uses
    and word endings.

    Returns ``(trans, ends)``: ``trans[q, j]`` counts the uses of the
    transition out of state ``q`` on the ``j``-th alphabet symbol, and
    ``ends[q]`` the words that end in ``q``.  Each visit to a state is
    followed by exactly one of these events, so a state's visits are
    ``trans[q].sum() + ends[q]``.  The skeleton is a complete DFA, so its
    transition table is dense and every word is stepped to its end."""
    table = _check_skeleton(skeleton)
    words = list(corpus)
    if not words:
        raise ValueError("corpus is empty")
    n, k = table.shape
    (init,) = skeleton.initial
    states = np.full(len(words), init, np.int64)
    table = table.ravel()
    trans = np.zeros(n * k, np.int64)  # by source * k + symbol index
    for live, syms in _lockstep(words, skeleton._sym_index,
                                "skeleton alphabet"):
        key = states[:live]  # the sources, turned into keys in place
        key *= k
        key += syms
        trans += np.bincount(key, minlength=n * k)
        states[:live] = table[key]
    return trans.reshape(n, k), np.bincount(states, minlength=n)


def learn_pa(skeleton, corpus, name=None):
    """Estimate a PA from a complete DFA skeleton and a corpus.

    Each state's outgoing probabilities are its event frequencies: a word of
    length k contributes k transition events and one end event.  States the
    corpus never visits are dropped.  The result always satisfies the PA
    stochasticity conditions because every state keeps its own denominator.
    The counts are exact int64s, so each quotient is the correctly rounded
    one.
    """
    trans, ends = count_events(skeleton, corpus)
    totals = trans.sum(axis=1) + ends
    visited = totals > 0
    final = np.zeros(len(totals))
    final[visited] = ends[visited] / totals[visited]
    (init,) = skeleton.initial
    initial = [0.0] * len(totals)
    initial[init] = 1.0
    qs, js = np.nonzero(trans)
    alphabet = skeleton.alphabet
    delta = skeleton._delta
    transitions = [(q, alphabet[j], delta[q][alphabet[j]][0], w)
                   for q, j, w in zip(qs.tolist(), js.tolist(),
                                      (trans[qs, js] / totals[qs]).tolist())]
    pa = Pa(alphabet, initial, final.tolist(), transitions, name=name)
    if pa.num_states != np.count_nonzero(visited):
        raise RuntimeError("learned model kept a state without events "
                           "(internal error)")
    return pa


def complete_dfa(skeleton):
    """Make a DFA complete by adding one non-final sink with self-loops and
    routing every missing transition to it.  A complete input is returned
    unchanged; the skeleton is never modified silently elsewhere."""
    qs, js = np.nonzero(_check_skeleton(skeleton, complete=False) < 0)
    if not qs.size:
        return skeleton
    missing = [(q, skeleton.alphabet[j])
               for q, j in zip(qs.tolist(), js.tolist())]
    sink = skeleton.num_states
    transitions = list(skeleton.transitions())
    transitions += [(q, sym, sink) for q, sym in missing]
    transitions += [(sink, sym, sink) for sym in skeleton.alphabet]
    return Nfa(sink + 1, skeleton.alphabet, transitions,
               initial=skeleton.initial, final=skeleton.final,
               name=skeleton.name)


def traffic_error(a, a_reduced, sample):
    """Fraction of sample words classified differently by the two automata.

    Returns (mismatches, total, ratio); duplicates count with multiplicity.
    The mismatches are the sample words that ``distance``'s DFA accepts:
    the runs step the ``nfa._DifferenceTable`` of the two automata's class
    automata (``nfa._symbol_classes``), filled lazily with a column per
    class, and each symbol of the sample is read as its class.  The two
    alphabets must agree, and every symbol of every word must be in them.
    Raises DeterminizationCapError when the table would need more than
    ``DEFAULT_DET_CAP`` pairs.  The table holds one int32 per (pair,
    class): at the default cap and 256 classes, up to about 1 GiB, twice
    that for the copy while it grows, besides the pairs themselves.
    """
    class_of, (a1, a2) = _symbol_classes([a, _aligned(a_reduced, a)])
    table = _DifferenceTable(a1, a2, DEFAULT_DET_CAP)
    words = list(sample)
    if not words:
        raise ValueError("sample is empty")
    states = np.full(len(words), table.start, np.int32)
    for live, classes in _lockstep(words, dict(zip(a.alphabet, class_of)),
                                   "alphabet"):
        states[:live] = table.step(states[:live], classes)
    mismatches = int(np.count_nonzero(np.array(table.final)[states]))
    return mismatches, len(words), mismatches / len(words)


def _lockstep(words, index, alphabet_name):
    """Step the corpus in lockstep: yields, for each step t, the number of
    words still running and their symbols at position t, as the numbers
    that ``index`` gives the symbols of the alphabet (their alphabet
    indices, or their class columns).

    The corpus is encoded once, as one flat array of those numbers in the
    narrowest unsigned dtype that holds them: uint8 up to 256 symbols or
    classes, uint16 beyond.  A corpus of ``bytes`` words is joined into one
    buffer and encoded by one lookup in a 256-entry table, which maps a
    byte outside the alphabet to one past the largest number; the largest
    code then tells whether there is one, with no corpus-sized mask.  Up to
    256 numbers, the buffer and the codes take one byte per symbol each.
    Other words go through ``index`` symbol by symbol, the only path for
    string symbols (text corpora, tuples from callers).  Words are taken
    longest first, so the words still running at step t are a prefix, and
    one array of their positions is advanced in place.  The first symbol
    outside the alphabet, in corpus order, raises ValueError.
    """
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    top = max(index.values()) + 1
    try:
        if all(isinstance(w, bytes) for w in words):
            buf = np.frombuffer(b"".join(words), np.uint8)
            lut = [index.get(b, top) for b in range(256)]
            codes = np.array(lut, np.min_scalar_type(max(lut)))[buf]
            if codes.size and codes.max() == top:
                raise KeyError(int(buf[np.argmax(codes == top)]))
        else:
            codes = np.fromiter(
                map(index.__getitem__, chain.from_iterable(words)),
                np.min_scalar_type(top - 1), int(lengths.sum()))
    except KeyError as exc:
        raise ValueError(
            f"symbol {exc.args[0]!r} not in {alphabet_name}") from None
    offsets = np.zeros(len(words), np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    pos = offsets[np.argsort(-lengths, kind="stable")]
    # words of length >= t, for t = 0 .. longest
    at_least = np.cumsum(np.bincount(lengths)[::-1])[::-1]
    for live in at_least[1:].tolist():
        yield live, codes[pos[:live]]
        pos[:live] += 1
