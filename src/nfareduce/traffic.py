"""Semi-automatic traffic-model learning and empirical error evaluation.

A hand-written DFA skeleton captures the high-level structure of the
traffic; feeding it a corpus and counting how often every state is reached,
every transition taken, and every word ends in a state turns the skeleton
into a PA in the obvious way.  Unobserved transitions get probability 0 and
vanish from the support; no smoothing is applied, that is a modelling
choice left to the caller.

Both the counting (``count_events``) and the empirical error
(``traffic_error``) run the whole corpus in lockstep.  The corpus is encoded
once into a flat int32 array of alphabet indices, with the words ordered
longest first, so the words still running at step t are a prefix; each
step is then one array lookup ``table[state, symbol]`` for all of them.
The skeleton is a complete DFA, so its table is dense from the start.  For
``traffic_error``, each automaton gets a lazy subset table instead: the
subset construction, with an explicit dead subset, whose rows are filled
only when a run first reaches them.  Only the subsets the corpus leads to
are built, under the usual determinization cap, with the accept-all states
as traps (``nfa._subset_step``), since eval reads only whether a word is
accepted.
"""

from itertools import chain

import numpy as np

from .errors import DeterminizationCapError
from .nfa import (DEFAULT_DET_CAP, Nfa, _accept_all, _start, _subset_step,
                  same_alphabet)
from .pa import Pa


def _check_skeleton(skeleton, complete=True):
    if len(skeleton.initial) != 1:
        raise ValueError("skeleton must have exactly one initial state")
    for q in range(skeleton.num_states):
        for sym in skeleton.alphabet:
            succ = skeleton.succ(q, sym)
            if len(succ) > 1:
                raise ValueError(
                    f"skeleton is nondeterministic at state {q}, {sym!r}")
            if complete and not succ:
                raise ValueError(
                    f"skeleton is incomplete: state {q} has no {sym!r} "
                    "transition (see complete_dfa)")


def count_events(skeleton, corpus):
    """Run every corpus word through the skeleton, counting transition uses
    and word endings.

    Returns ``(trans, ends)``: ``trans[q, j]`` counts the uses of the
    transition out of state ``q`` on the ``j``-th alphabet symbol, and
    ``ends[q]`` the words that end in ``q``.  Each visit to a state is
    followed by exactly one of these events, so a state's visits are
    ``trans[q].sum() + ends[q]``.  The skeleton is a complete DFA, so its
    transition table is dense and every word is stepped to its end."""
    _check_skeleton(skeleton)
    words = list(corpus)
    if not words:
        raise ValueError("corpus is empty")
    n, k = skeleton.num_states, len(skeleton.alphabet)
    index = skeleton._sym_index
    table = np.empty((n, k), np.int64)  # so source * k cannot overflow
    for q, moves in skeleton._delta.items():
        for sym, (dst,) in moves.items():
            table[q, index[sym]] = dst

    (init,) = skeleton.initial
    states = np.full(len(words), init, np.int64)
    trans = np.zeros(n * k, np.int64)  # by source * k + symbol index
    for live, syms in _lockstep(words, index, "skeleton alphabet"):
        src = states[:live]
        np.add.at(trans, src * k + syms, 1)
        states[:live] = table[src, syms]
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
    transitions = [(q, alphabet[j], skeleton.succ(q, alphabet[j])[0], w)
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
    _check_skeleton(skeleton, complete=False)
    missing = [(q, sym) for q in range(skeleton.num_states)
               for sym in skeleton.alphabet if not skeleton.succ(q, sym)]
    if not missing:
        return skeleton
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
    The two alphabets must agree, and every symbol of every word must be
    in them.  Raises
    DeterminizationCapError when either automaton's subset table would need
    more than ``DEFAULT_DET_CAP`` non-empty subsets.  A table holds one
    int32 per (subset, symbol): at the default cap and a byte alphabet, up
    to about 1 GiB per automaton, twice that for the copy while it grows,
    besides the subsets themselves.
    """
    same_alphabet(a, a_reduced)
    words = list(sample)
    if not words:
        raise ValueError("sample is empty")
    index = a._sym_index
    first = _LazySubsets(a, index, DEFAULT_DET_CAP)
    second = _LazySubsets(a_reduced, index, DEFAULT_DET_CAP)
    s1 = np.full(len(words), first.start, np.int32)
    s2 = np.full(len(words), second.start, np.int32)
    for live, syms in _lockstep(words, index, "alphabet"):
        s1[:live] = first.step(s1[:live], syms)
        s2[:live] = second.step(s2[:live], syms)
    mismatches = int(np.count_nonzero(
        np.array(first.final)[s1] != np.array(second.final)[s2]))
    return mismatches, len(words), mismatches / len(words)


class _LazySubsets:
    """The subset construction of ``a`` with its accept-all states as
    traps (``nfa._subset_step``), filled only where a run goes.

    ``table[i, j]`` is the subset reached from subset ``i`` on the symbol
    in column ``j`` (``columns`` maps symbols to columns).  Subset 0 is the
    empty, dead subset, which every run that dies stays in.  A row is -1
    throughout until a step first reads it, and is then filled whole; the
    table doubles as subsets appear, up to ``cap`` non-empty subsets.
    """

    def __init__(self, a, columns, cap):
        traps = _accept_all(a)
        self._subset_step = _subset_step(a, traps)
        self._columns = columns
        self._cap = cap
        self._accepting = a.final
        self._index = {}
        self.subsets = []
        self.final = []
        self.table = np.full((2, len(columns)), -1, np.int32)
        self._add(frozenset())
        initial = _start(a, traps)
        self.start = self._add(initial) if initial else 0

    def _add(self, subset):
        i = self._index[subset] = len(self.subsets)
        self.subsets.append(subset)
        self.final.append(bool(subset & self._accepting))
        if i == len(self.table):
            grow = min(len(self.table), self._cap + 1 - i)
            self.table = np.concatenate(
                [self.table, np.full((grow, len(self._columns)), -1, np.int32)])
        return i

    def _fill(self, i):
        row = [0] * len(self._columns)
        for sym, subset in self._subset_step(self.subsets[i]):
            j = self._index.get(subset)
            if j is None:
                # the non-empty subsets so far, counted as ``_explore`` does
                full = len(self.subsets) - 1
                if full >= self._cap:
                    raise DeterminizationCapError(self._cap)
                j = self._add(subset)
            row[self._columns[sym]] = j
        self.table[i] = row

    def step(self, states, syms):
        """The subsets the runs in ``states`` reach on ``syms``."""
        nxt = self.table[states, syms]
        missing = nxt < 0
        if missing.any():
            for i in np.unique(states[missing]).tolist():
                self._fill(i)
            nxt[missing] = self.table[states[missing], syms[missing]]
        return nxt


def _lockstep(words, index, alphabet_name):
    """Step the corpus in lockstep: yields, for each step t, the number of
    words still running and their symbols at position t, as indices into
    the alphabet that ``index`` numbers.

    The corpus is encoded once, as one flat int32 array of alphabet
    indices.  Words are taken longest first, so the words still running at
    step t are a prefix.  A symbol outside the alphabet raises ValueError,
    wherever it is.
    """
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    try:
        codes = np.fromiter(map(index.__getitem__, chain.from_iterable(words)),
                            np.int32, int(lengths.sum()))
    except KeyError as exc:
        raise ValueError(
            f"symbol {exc.args[0]!r} not in {alphabet_name}") from None
    offsets = np.zeros(len(words), np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    starts = offsets[np.argsort(-lengths, kind="stable")]
    # words of length >= t, for t = 0 .. longest
    at_least = np.cumsum(np.bincount(lengths)[::-1])[::-1]
    for t, live in enumerate(at_least[1:].tolist()):
        yield live, codes[starts[:live] + t]
