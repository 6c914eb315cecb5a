"""NFA data model and the automaton algebra the reduction pipeline builds on.

States are dense integer indices ``0 .. num_states-1``.  Symbols are arbitrary
hashable tokens: strings in test mode, ints 0-255 for byte payloads.  The
alphabet is an ordered tuple, and every operation iterates states ascending
and symbols in alphabet order, so outputs are reproducible bit for bit.

Automata are immutable values: operations return new automata and never
mutate their inputs.  The maps derived from an automaton (``_pred``,
``_succ``, ``_live``) are filled in place on first use and kept; the package
starts no threads.

Every construction that builds a new automaton is one breadth-first
worklist (``_explore``) over the per-state transition store, which returns
its edges as three flat lists rather than a tuple per edge; only the
symmetric-difference DFA goes straight into a dense table
(``_DifferenceTable``), numbered as ``_explore`` would number it.
``distance`` needs only that DFA's language, and about half of its pairs
of subsets are equivalent, so it solves on the minimal DFA (``_minimal``:
Moore's partition refinement, one ``np.unique`` per round, on the filled
table); no other module reads the table's layout.  Every reachability
question is one closure (``_closure``).  Every subset construction steps
subsets with ``_subset_step``, whose one trap rule turns a subset that
holds a trap into the smallest trap alone.  The outputs of the subset
construction, ``through_state`` and ``first_hit`` are valid by
construction, so they fill the store directly (``_built``) instead of
re-validating every transition in ``Nfa.__init__``.
"""

import numpy as np

from .errors import AlphabetMismatchError, DeterminizationCapError

DEFAULT_DET_CAP = 1 << 20

_NO_MOVES = {}
_NO_STATES = frozenset()


class Nfa:
    """Nondeterministic finite automaton over an ordered alphabet.

    Transitions form a relation ``state x symbol -> set of states``, stored
    per state as ``state -> {symbol: sorted successors}`` with states
    ascending and symbols in alphabet order.  There may be several (or zero)
    initial states; a word is accepted if some run from an initial state
    ends in a final state.
    """

    __slots__ = ("num_states", "alphabet", "initial", "final", "name",
                 "_delta", "_sym_index", "_pred", "_succ", "_live")

    def __init__(self, num_states, alphabet, transitions=(), initial=(),
                 final=(), name=None):
        alphabet = tuple(alphabet)
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet contains duplicate symbols")
        num_states = int(num_states)
        if num_states < 0:
            raise ValueError("num_states must be >= 0")

        self.num_states = num_states
        self.alphabet = alphabet
        self._sym_index = {s: i for i, s in enumerate(alphabet)}
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        self.name = name

        for q in self.initial | self.final:
            self._check_state(q)

        delta = {}
        for src, sym, dst in transitions:
            self._check_state(src)
            self._check_state(dst)
            if sym not in self._sym_index:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            delta.setdefault(src, {}).setdefault(sym, set()).add(dst)
        order = self._sym_index.__getitem__
        self._delta = {
            src: {sym: tuple(sorted(moves[sym]))
                  for sym in sorted(moves, key=order)}
            for src, moves in sorted(delta.items())}
        self._pred = None
        self._succ = None
        self._live = None

    @classmethod
    def _built(cls, num_states, like, delta, initial, final, name=None):
        """Automaton over the alphabet of ``like`` from a store that already
        keeps the invariants (states ascending, symbols in alphabet order,
        sorted successor tuples, no empty entries); nothing is checked."""
        a = object.__new__(cls)
        a.num_states = num_states
        a.alphabet = like.alphabet
        a._sym_index = like._sym_index
        a.initial = frozenset(initial)
        a.final = frozenset(final)
        a.name = name
        a._delta = delta
        a._pred = None
        a._succ = None
        a._live = None
        return a

    def _check_state(self, q):
        if not isinstance(q, int) or not 0 <= q < self.num_states:
            raise ValueError(f"state {q!r} out of range 0..{self.num_states - 1}")

    def succ(self, q, sym):
        """Successor states of ``q`` on ``sym`` (possibly empty tuple)."""
        return self._delta.get(q, _NO_MOVES).get(sym, ())

    def moves(self, q):
        """(symbol, successors) pairs of ``q`` in alphabet order, for the
        symbols ``q`` has a transition on."""
        return self._delta.get(q, _NO_MOVES).items()

    def neighbors(self, q):
        """The frozenset of all distinct successors of ``q`` over any
        symbol; the map behind it is built once per automaton and kept,
        since automata are immutable."""
        if self._succ is None:
            self._succ = {src: frozenset().union(*moves.values())
                          for src, moves in self._delta.items()}
        return self._succ.get(q, _NO_STATES)

    def transitions(self):
        """Yield (src, sym, dst) triples sorted by (src, alphabet order, dst)."""
        for src, moves in self._delta.items():
            for sym, dsts in moves.items():
                for dst in dsts:
                    yield src, sym, dst

    def num_transitions(self):
        return sum(len(dsts) for moves in self._delta.values()
                   for dsts in moves.values())

    def __len__(self):
        return self.num_states

    def __eq__(self, other):
        if not isinstance(other, Nfa):
            return NotImplemented
        return (self.num_states == other.num_states
                and self.alphabet == other.alphabet
                and self.initial == other.initial
                and self.final == other.final
                and self._delta == other._delta)

    def __repr__(self):
        return (f"Nfa(states={self.num_states}, "
                f"transitions={self.num_transitions()}, "
                f"initial={sorted(self.initial)}, final={sorted(self.final)})")


def _check_states(a, states):
    for q in states:
        a._check_state(q)


def same_alphabet(a1, a2):
    """Check the two operands share one alphabet; return the ordered one of a1.
    The error names the two sizes and at most 8 of the symbols in only one
    of them, so that a byte alphabet does not fill a screen."""
    if a1.alphabet == a2.alphabet:
        return a1.alphabet
    one, two = set(a1.alphabet), set(a2.alphabet)
    if one != two:
        only = ([s for s in a1.alphabet if s not in two]
                + [s for s in a2.alphabet if s not in one])
        shown = ", ".join(map(repr, only[:8])) + (", ..." if only[8:] else "")
        raise AlphabetMismatchError(
            f"alphabets differ: {len(one)} vs {len(two)} symbols, "
            f"{len(only)} in only one: {shown}")
    return a1.alphabet


def _explore(starts, step, cap=None):
    """Breadth-first worklist that numbers keys in discovery order.

    ``starts`` are numbered first, in the order given; ``step(key)`` yields
    the (label, successor key) pairs of a key.  Returns ``(keys, (src,
    labels, dst))``: the keys by number and the edges in the order they
    were found, as three flat lists, so an edge costs three list slots and
    no tuple.  Raises DeterminizationCapError when a new key would exceed
    ``cap`` keys.
    """
    index = {}
    keys = []
    for key in starts:
        if key not in index:
            index[key] = len(keys)
            keys.append(key)
    src, labels, dst = [], [], []
    i = 0
    while i < len(keys):
        for label, key in step(keys[i]):
            j = index.get(key)
            if j is None:
                if cap is not None and len(keys) >= cap:
                    raise DeterminizationCapError(cap)
                j = index[key] = len(keys)
                keys.append(key)
            src.append(i)
            labels.append(label)
            dst.append(j)
        i += 1
    return keys, (src, labels, dst)


def _closure(seeds, neighbors, blocked=_NO_STATES, seen=None):
    """The least superset of ``seeds`` closed under ``neighbors(x)`` that
    enters no state of ``blocked``, as a frozenset; or, given ``seen``, a
    set closed so already, ``seen`` itself grown in place by it."""
    grown = set() if seen is None else seen
    stack = [x for x in seeds if x not in grown]
    grown.update(stack)
    while stack:
        for y in neighbors(stack.pop()):
            if y not in grown and y not in blocked:
                grown.add(y)
                stack.append(y)
    return frozenset(grown) if seen is None else grown


def _predecessors(a):
    """state -> the frozenset of states with a transition into it; built
    once per automaton and kept, since automata are immutable."""
    if a._pred is None:
        pred = {q: set() for q in range(a.num_states)}
        for src in a._delta:
            for dst in a.neighbors(src):
                pred[dst].add(src)
        a._pred = {q: frozenset(srcs) for q, srcs in pred.items()}
    return a._pred


def _live_states(a):
    """The states that can reach a final state, kept like ``_pred``."""
    if a._live is None:
        a._live = coreach(a, a.final)
    return a._live


def _store(edges):
    """Per-state store from ``_explore``'s flat edge lists, zipped: the
    edges come grouped by ascending source and, per source, with labels in
    alphabet order.
    Successor tuples are built directly (no list per entry), and only the
    entries with several successors are sorted afterwards."""
    delta = {}
    several = []
    last = None
    for i, sym, j in zip(*edges):
        if i != last:
            moves = delta[i] = {}
            last = i
        dsts = moves.get(sym)
        if dsts is None:
            moves[sym] = (j,)
        else:
            if len(dsts) == 1:
                several.append((moves, sym))
            moves[sym] = dsts + (j,)
    for moves, sym in several:
        moves[sym] = tuple(sorted(moves[sym]))
    return delta


def reach(a, sources):
    """Forward-reachable states from ``sources``, including the sources."""
    _check_states(a, sources)
    return _closure(sources, a.neighbors)


def coreach(a, targets):
    """States from which some state in ``targets`` is reachable."""
    _check_states(a, targets)
    return _closure(targets, _predecessors(a).__getitem__)


def trim_survivors(a):
    """Original indices of states that survive trimming."""
    return reach(a, a.initial) & coreach(a, a.final)


def restrict_with_map(a, keep):
    """Restrict ``a`` to ``keep``; also return new-index -> old-index tuple.

    Renumbering keeps the order of states, so the store keeps its
    invariants and is built directly."""
    _check_states(a, keep)
    kept = sorted(set(keep))
    pos = {old: new for new, old in enumerate(kept)}
    delta = {}
    for old in kept:
        moves = {}
        for sym, dsts in a.moves(old):
            dsts = tuple(pos[d] for d in dsts if d in pos)
            if dsts:
                moves[sym] = dsts
        if moves:
            delta[pos[old]] = moves
    return (Nfa._built(len(kept), a, delta,
                       [pos[q] for q in kept if q in a.initial],
                       [pos[q] for q in kept if q in a.final], name=a.name),
            tuple(kept))


def restrict(a, keep):
    """Restriction to ``keep``: transitions, initial and final intersected."""
    return restrict_with_map(a, keep)[0]


def trim(a):
    """Restrict to states both reachable from initial and co-reachable to final."""
    return restrict(a, trim_survivors(a))


def self_loop(a, r):
    """Replace the outgoing transitions of every state in ``r`` with
    self-loops over the whole alphabet and mark those states final.

    Marking the looped states final makes the result an over-approximation:
    every word leading into ``r`` is accepted together with all of its
    extensions.
    """
    _check_states(a, r)
    r = frozenset(r)
    # the moves of the other states are shared: automata are immutable
    delta = {q: {sym: (q,) for sym in a.alphabet} if q in r else a._delta[q]
             for q in sorted(r.union(a._delta))}
    return Nfa._built(a.num_states, a, delta, a.initial, a.final | r,
                      name=a.name)


def _difference(a1, a2):
    """(start, step, final) of the DFA of the words in exactly one of L(a1)
    and L(a2), with moves labelled by alphabet index.  Its states are pairs
    of subsets, one per side, each side stepped by its own subset
    construction with its accept-all states as traps; a pair is final when
    exactly one side's subset holds a final state.  A pair where both sides
    are trapped accepts every continuation on both sides, so the step drops
    it, as it drops the empty pair; either one, as the start, has no
    moves."""
    alphabet = same_alphabet(a1, a2)
    traps1, traps2 = _accept_all(a1), _accept_all(a2)
    step1, step2 = _subset_step(a1, traps1), _subset_step(a2, traps2)
    trapped = ((_trap(traps1), _trap(traps2)) if traps1 and traps2
               else None)

    def step(pair):
        moves1, moves2 = dict(step1(pair[0])), dict(step2(pair[1]))
        for c, sym in enumerate(alphabet):
            t = moves1.get(sym, _NO_STATES), moves2.get(sym, _NO_STATES)
            if (t[0] or t[1]) and t != trapped:
                yield c, t

    def final(pair):
        return bool(pair[0] & a1.final) != bool(pair[1] & a2.final)

    return (_start(a1, traps1), _start(a2, traps2)), step, final


class _DifferenceTable:
    """The DFA of ``_difference(a1, a2)``, at most ``cap`` pairs, as a
    dense int32 table: ``table[i, j]`` is the state reached from state
    ``i`` on the ``j``-th symbol, and ``final[i]`` whether ``i`` accepts.
    State 0 is dead, where every move the step leaves out leads, and
    ``start`` is state 1.  A row is -1 until it is filled whole; pairs are
    numbered as first met, and the table doubles as they appear.  ``eval``
    fills the rows its runs reach (``step``), ``distance`` every row in
    turn (``fill``), which numbers and counts the pairs as ``_explore``.
    """

    def __init__(self, a1, a2, cap):
        start, self._step, self._is_final = _difference(a1, a2)
        self._cap = cap
        self._index = {}
        self.keys = [None]
        self.final = [False]
        self.table = np.full((2, len(a1.alphabet)), -1, np.int32)
        self.table[0] = 0
        self.start = self._add(start)

    def _add(self, key):
        i = self._index[key] = len(self.keys)
        self.keys.append(key)
        self.final.append(self._is_final(key))
        if i == len(self.table):
            grow = min(i, self._cap + 1 - i)
            self.table = np.concatenate(
                [self.table, np.full((grow, self.table.shape[1]), -1,
                                     np.int32)])
        return i

    def _fill(self, i):
        row = [0] * self.table.shape[1]
        for c, key in self._step(self.keys[i]):
            j = self._index.get(key)
            if j is None:
                # the pairs, without the dead state, as ``_explore`` counts
                if len(self.keys) - 1 >= self._cap:
                    raise DeterminizationCapError(self._cap)
                j = self._add(key)
            row[c] = j
        self.table[i] = row

    def fill(self):
        """Fill every row, in the order the pairs were met; returns the
        table's rows and the final flags, as arrays."""
        i = 1
        while i < len(self.keys):
            self._fill(i)
            i += 1
        return self.table[:i], np.array(self.final)

    def step(self, states, cols):
        """The states the runs in ``states`` reach on the alphabet indices
        ``cols``, filling the rows they are the first to read."""
        nxt = self.table[states, cols]
        missing = nxt < 0
        if missing.any():
            # ascending; a plain np.unique would import numpy.ma
            for i in sorted(set(states[missing].tolist())):
                self._fill(i)
            nxt[missing] = self.table[states[missing], cols[missing]]
        return nxt


def _minimal(like, table, final):
    """The minimal partial DFA of a DFA over the alphabet of ``like``, given
    as ``_DifferenceTable.fill`` returns it: ``table[i, j]`` is the
    state reached from state ``i`` on the ``j``-th symbol, ``final`` flags
    the final states, state 0 is a dead state that every missing move leads
    to, and state 1 is initial.

    Moore's refinement splits the blocks by (block, blocks of the
    successors), one ``np.unique`` over the rows per round, until the
    number of blocks stays.  The blocks are numbered by their smallest
    state, which keeps the discovery order: the dead block comes first and
    is left out, so the initial state's block becomes state 0.  Each block
    takes the row of its smallest state.  When no two states merge, the
    result is the DFA that ``_explore`` and ``_store`` build.  When the
    initial state is dead, it is the one state, without moves.
    """
    alphabet = like.alphabet
    block = final.astype(np.int32)
    count = 1 + bool(final.any())
    rows = np.empty((len(table), len(alphabet) + 1), np.int32)
    while True:
        rows[:, 0] = block
        rows[:, 1:] = block[table]
        blocks, block = np.unique(rows.view((np.void, rows.strides[0])),
                                  return_inverse=True)
        block = block.ravel().astype(np.int32)
        if len(blocks) == count:
            break
        count = len(blocks)
    if block[1] == block[0]:
        return Nfa._built(1, like, {}, [0], [])
    _, first = np.unique(block, return_index=True)
    first.sort()
    first = first[1:]
    number = np.full(count, -1)
    number[block[first]] = np.arange(len(first))
    new = number[block]
    # the store as ``_store`` fills it: moves in alphabet order, one
    # successor tuple each, no entry for a state without moves
    one = [(i,) for i in range(len(first))]
    delta = {}
    for i, row in enumerate(new[table[first]].tolist()):
        moves = {alphabet[c]: one[j] for c, j in enumerate(row) if j >= 0}
        if moves:
            delta[i] = moves
    return Nfa._built(len(first), like, delta, [0],
                      np.flatnonzero(final[first]).tolist())


def _symbol_classes(automata):
    """The classes of symbols on which every state of every automaton in
    ``automata``, which share one alphabet order, has the same successors,
    as (class of each symbol in alphabet order, class automata).  A class
    is named by its first symbol, and a symbol without moves is a class of
    its own.  The class automata keep one move per class; they are
    ``automata`` themselves when no two symbols share a class."""
    # each symbol's signature: its (automaton, state, successors), in one
    # pass over the moves.  A symbol without moves takes part in no subset
    # construction or product, so merging it would save nothing and cost a
    # class PA: it stays a class of its own.
    sigs = {}
    for i, a in enumerate(automata):
        for q, moves in a._delta.items():
            key = (i, q)
            for sym, dsts in moves.items():
                sig = sigs.get(sym)
                if sig is None:
                    sigs[sym] = [key, dsts]
                else:
                    sig += key, dsts
    ids = {}
    sig_id = {sym: ids.setdefault(tuple(sig), len(ids))
              for sym, sig in sigs.items()}
    alphabet = automata[0].alphabet
    if len(ids) == len(sig_id):
        return range(len(alphabet)), automata
    classes = {}
    reps = []
    class_of = []
    for sym in alphabet:
        g = sig_id.get(sym)
        c = len(reps) if g is None else classes.setdefault(g, len(reps))
        if c == len(reps):
            reps.append(sym)
        class_of.append(c)
    like = Nfa(0, reps)
    index = like._sym_index
    return class_of, [
        Nfa._built(a.num_states, like,
                   {q: {sym: dsts for sym, dsts in moves.items()
                        if sym in index}
                    for q, moves in a._delta.items()},
                   a.initial, a.final, a.name)
        for a in automata]


def _trap(traps):
    """The subset that a subset holding one of ``traps`` becomes."""
    return frozenset([min(traps)])


def _start(a, traps):
    """The initial subset of ``a`` under ``_subset_step``'s trap rule."""
    start = frozenset(a.initial)
    return start if traps.isdisjoint(start) else _trap(traps)


def _subset_step(a, traps=_NO_STATES):
    """The subset-successor function of ``a``: it maps a subset of states
    to its (symbol, successor subset) pairs in alphabet order, leaving out
    the symbols whose successor subset is empty.

    A successor subset that holds one of ``traps`` becomes the smallest
    trap alone.  A trap is a state whose future does not depend on the rest
    of the subset, so every trap must have the same one: either every trap
    accepts all words (``_accept_all``), which keeps the language, or the
    one trap is a final state without moves, where the construction stops
    (``first_hit``)."""
    order = a._sym_index.__getitem__
    # one frozenset per (state, symbol), so a target that comes from one
    # state alone is that shared object, hashed only once
    moves = {q: {sym: frozenset(dsts) for sym, dsts in m.items()}
             for q, m in a._delta.items()}

    def step(s):
        # start from the state with the most moves: when it has every
        # symbol of the subset, the targets are already in alphabet order
        sources = sorted((moves[q] for q in s if q in moves), key=len,
                         reverse=True)
        if not sources:
            return ()
        targets = dict(sources[0])
        for m in sources[1:]:
            for sym, dsts in m.items():
                cur = targets.get(sym)
                targets[sym] = dsts if cur is None else cur | dsts
        if len(targets) == len(sources[0]):
            return targets.items()
        return [(sym, targets[sym]) for sym in sorted(targets, key=order)]

    if not traps:
        return step
    trap = _trap(traps)
    # only a subset with a move into a trap has a successor the rule changes
    feeds = frozenset(q for q, m in moves.items()
                      if any(not traps.isdisjoint(d) for d in m.values()))

    def trap_step(s):
        if feeds.isdisjoint(s):
            return step(s)
        return [(sym, t if traps.isdisjoint(t) else trap)
                for sym, t in step(s)]

    return trap_step


def _accept_all(a):
    """The accept-all states of ``a``: final states with a self-loop on
    every symbol.  Every word read from one of them is accepted, so a
    subset that holds one accepts every word, whatever else it holds."""
    k = len(a.alphabet)
    return frozenset(q for q in a.final
                     if len(a._delta.get(q, _NO_MOVES)) == k
                     and all(q in dsts for dsts in a._delta[q].values()))


def determinize_with_subsets(a, cap=DEFAULT_DET_CAP, *, traps=_NO_STATES):
    """Subset construction; returns (dfa, subset of original states per
    new state).  Only subsets reachable from the initial set are built, and
    the empty successor subset is dropped (the result is a partial DFA).

    Every subset, the initial one included, that holds one of ``traps``
    becomes the smallest trap alone (``_subset_step``).  Without traps
    every subset is exact, as the labelling engine needs, since it reads
    which states each subset holds.  Raises DeterminizationCapError when
    more than ``cap`` subsets appear.
    """
    subsets, edges = _explore([_start(a, traps)], _subset_step(a, traps),
                              cap)
    final = [i for i, s in enumerate(subsets) if s & a.final]
    return (Nfa._built(len(subsets), a, _store(edges), [0], final,
                       name=a.name),
            tuple(subsets))


def determinize(a, cap=DEFAULT_DET_CAP):
    """Language-preserving determinization via the subset construction,
    with the accept-all states of ``a`` as traps.  On an automaton without
    them it is ``determinize_with_subsets``'s DFA.

    Called directly, it stores a move per symbol, about 27 KB per subset
    over 256 bytes; every library path quotients the alphabet first."""
    return determinize_with_subsets(a, cap, traps=_accept_all(a))[0]


def _through_acceptor(a, q, cut):
    """The (state, flag) acceptor of the words with a run through ``q``,
    behind ``through_state`` and ``first_hit``.  Flag 1 means the run has
    reached ``q``.  Only useful pairs are built: flag 0 on the states that
    can reach ``q``.  Uncut, flag 1 is on the states reachable from ``q``
    that can reach a final state, and accepting requires flag 1 at a final
    state; there are no pairs at all when ``q`` cannot reach one.  Cut,
    (q, 1) is the one final pair and has no moves."""
    a._check_state(q)
    to_q = coreach(a, [q]) if cut or q in _live_states(a) else _NO_STATES
    live = to_q if cut else _live_states(a)

    def step(node):
        s, flag = node
        if flag and cut:
            return
        for sym, dsts in a.moves(s):
            for d in dsts:
                if flag or d == q:
                    if d in live:
                        yield sym, (d, 1)
                elif d in to_q:
                    yield sym, (d, 0)

    starts = [(i, 1 if i == q else 0) for i in sorted(a.initial) if i in to_q]
    nodes, edges = _explore(starts, step)
    final = [i for i, (s, flag) in enumerate(nodes)
             if flag and (cut or s in a.final)]
    return Nfa._built(len(nodes), a, _store(edges), range(len(starts)),
                      final)


def through_state(a, q):
    """Automaton accepting exactly the words with an accepting run passing
    through ``q``: the concatenation of q's back-language and language.
    Every state of the result is on an initial-to-final path."""
    return _through_acceptor(a, q, cut=False)


def first_hit(a, q, cap=DEFAULT_DET_CAP):
    """DFA of the words that reach ``q`` and have no proper prefix that
    does: each word with a prefix in q's back-language has exactly one
    such prefix.

    It is the subset construction of the through-state acceptor cut at
    ``q`` (its flag-0 pairs, then (q, 1), final and without moves), with
    (q, 1) as the trap: a subset that holds it becomes that pair alone,
    the one final state, and stops there.  Raises DeterminizationCapError
    when more than ``cap`` subsets appear.
    """
    acceptor = _through_acceptor(a, q, cut=True)
    return determinize_with_subsets(acceptor, cap, traps=acceptor.final)[0]


def accepts(a, word):
    """NFA membership by on-the-fly subset propagation."""
    cur = set(a.initial)
    for sym in word:
        if sym not in a._sym_index:
            raise ValueError(f"symbol {sym!r} not in alphabet")
        nxt = set()
        for q in cur:
            nxt.update(a.succ(q, sym))
        cur = nxt
        if not cur:
            break
    return bool(cur & a.final)


def components(a):
    """Weakly-connected components of the transition graph, as a list of
    state sets ordered by their smallest member.  Isolated states form
    singleton components."""
    pred = _predecessors(a)
    seen = set()
    comps = []
    for q in range(a.num_states):
        if q not in seen:
            comp = _closure([q], lambda s: a.neighbors(s) | pred[s])
            seen |= comp
            comps.append(comp)
    return comps
