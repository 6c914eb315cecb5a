"""NFA data model and the automaton algebra the reduction pipeline builds on.

States are dense integer indices ``0 .. num_states-1``.  Symbols are arbitrary
hashable tokens: strings in test mode, ints 0-255 for byte payloads.  The
alphabet is an ordered tuple, and every operation iterates states ascending
and symbols in alphabet order, so outputs are reproducible bit for bit.

Automata are immutable values: operations return new automata and never
mutate their inputs, which makes them safe to share across threads.

Every construction that builds a new automaton is one breadth-first
worklist (``_explore``) over the per-state transition store, and every
reachability question is one closure (``_closure``).  The outputs of the
subset construction and of ``through_state`` are valid by construction, so
they fill the store directly (``_built``) instead of re-validating every
transition in ``Nfa.__init__``.
"""

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
                 "_delta", "_sym_index", "_pred", "_succ")

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
    """Check the two operands share one alphabet; return the ordered one of a1."""
    if set(a1.alphabet) != set(a2.alphabet):
        raise AlphabetMismatchError(
            f"alphabets differ: {a1.alphabet!r} vs {a2.alphabet!r}")
    return a1.alphabet


def _explore(starts, step, cap=None):
    """Breadth-first worklist that numbers keys in discovery order.

    ``starts`` are numbered first, in the order given; ``step(key)`` yields
    the (label, successor key) pairs of a key.  Returns ``(keys, edges)``:
    the keys by number and the (src number, label, dst number) edges in the
    order they were found.  Raises DeterminizationCapError when a new key
    would exceed ``cap`` keys.
    """
    index = {}
    keys = []
    for key in starts:
        if key not in index:
            index[key] = len(keys)
            keys.append(key)
    edges = []
    i = 0
    while i < len(keys):
        for label, key in step(keys[i]):
            j = index.get(key)
            if j is None:
                if cap is not None and len(keys) >= cap:
                    raise DeterminizationCapError(cap)
                j = index[key] = len(keys)
                keys.append(key)
            edges.append((i, label, j))
        i += 1
    return keys, edges


def _closure(seeds, neighbors):
    """The least superset of ``seeds`` closed under ``neighbors(x)``."""
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for y in neighbors(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


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


def _store(edges):
    """Per-state store from ``_explore`` edges: they come grouped by
    ascending source and, per source, with labels in alphabet order.
    Successor tuples are built directly (no list per entry), and only the
    entries with several successors are sorted afterwards."""
    delta = {}
    several = []
    last = None
    for i, sym, j in edges:
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
    """Restrict ``a`` to ``keep``; also return new-index -> old-index tuple."""
    _check_states(a, keep)
    kept = sorted(set(keep))
    pos = {old: new for new, old in enumerate(kept)}
    transitions = [(pos[src], sym, pos[dst])
                   for src, sym, dst in a.transitions()
                   if src in pos and dst in pos]
    return (Nfa(len(kept), a.alphabet, transitions,
                initial=[pos[q] for q in kept if q in a.initial],
                final=[pos[q] for q in kept if q in a.final],
                name=a.name),
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
    transitions = [(src, sym, dst) for src, sym, dst in a.transitions()
                   if src not in r]
    for q in sorted(r):
        for sym in a.alphabet:
            transitions.append((q, sym, q))
    return Nfa(a.num_states, a.alphabet, transitions,
               initial=a.initial, final=a.final | r, name=a.name)


def union(a1, a2):
    """Disjoint union; accepts L(a1) + L(a2).  States of a2 are shifted."""
    alphabet = same_alphabet(a1, a2)
    off = a1.num_states
    transitions = list(a1.transitions())
    transitions += [(src + off, sym, dst + off)
                    for src, sym, dst in a2.transitions()]
    return Nfa(a1.num_states + a2.num_states, alphabet, transitions,
               initial=sorted(a1.initial) + [q + off for q in sorted(a2.initial)],
               final=sorted(a1.final) + [q + off for q in sorted(a2.final)])


def _symmetric_difference(a1, a2, cap=DEFAULT_DET_CAP):
    """Partial DFA accepting the words in exactly one of L(a1) and L(a2):
    the subset construction on their union, with a subset final when it
    holds a final state of one side only.

    Where one side's part of a subset holds an accept-all state of that
    side, the part is cut down to the side's smallest one: either way that
    side accepts every continuation.  Where both sides' parts hold one, no
    continuation is in the difference, and the subset is cut to the empty
    one, which is dropped (or, as the initial subset, has no moves).
    Raises DeterminizationCapError when more than ``cap`` subsets appear."""
    u = union(a1, a2)
    off = a1.num_states
    sinks1 = _accept_all(a1)
    sinks2 = frozenset(q + off for q in _accept_all(a2))
    cut = None
    if sinks1 or sinks2:
        side1 = frozenset(range(off))
        side2 = frozenset(range(off, u.num_states))
        trap1 = frozenset(sorted(sinks1)[:1])
        trap2 = frozenset(sorted(sinks2)[:1])

        def cut(s):
            held1 = not sinks1.isdisjoint(s)
            held2 = not sinks2.isdisjoint(s)
            if held1 and held2:
                return _NO_STATES
            if held1:
                return s & side2 | trap1
            if held2:
                return s & side1 | trap2
            return s

    dfa, subsets = determinize_with_subsets(u, cap, cut=cut)
    final2 = frozenset(q + off for q in a2.final)
    final = [i for i, s in enumerate(subsets)
             if bool(s & a1.final) != bool(s & final2)]
    return Nfa._built(dfa.num_states, dfa, dfa._delta, dfa.initial, final)


def _subset_step(a, cut=None):
    """The subset-successor function of ``a``: it maps a subset of states
    to its (symbol, successor subset) pairs in alphabet order, leaving out
    the symbols whose successor subset is empty.  With ``cut``, each
    successor subset s is replaced by ``cut(s)``, and left out when that
    is empty; ``cut`` must leave a subset without accept-all states as it
    is."""
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

    if cut is None:
        return step
    # only a subset with a move into an accept-all state has a successor
    # that the cut can change
    sinks = _accept_all(a)
    feeds = frozenset(q for q, m in moves.items()
                      if any(not sinks.isdisjoint(d) for d in m.values()))

    def cut_step(s):
        if feeds.isdisjoint(s):
            return step(s)
        return [(sym, t) for sym, t in ((sym, cut(t)) for sym, t in step(s))
                if t]

    return cut_step


def _accept_all(a):
    """The accept-all states of ``a``: final states with a self-loop on
    every symbol.  Every word read from one of them is accepted, so a
    subset that holds one accepts every word, whatever else it holds."""
    k = len(a.alphabet)
    return frozenset(q for q in a.final
                     if len(a._delta.get(q, _NO_MOVES)) == k
                     and all(q in dsts for dsts in a._delta[q].values()))


def _absorbing(a):
    """The cut for a subset construction that only needs the language of
    ``a``: a subset that holds an accept-all state becomes the smallest
    one, which accepts the same words.  None when ``a`` has no accept-all
    state, so that the construction stays the plain one."""
    sinks = _accept_all(a)
    if not sinks:
        return None
    trap = frozenset([min(sinks)])

    def cut(s):
        return s if sinks.isdisjoint(s) else trap

    return cut


def determinize_with_subsets(a, cap=DEFAULT_DET_CAP, *, cut=None):
    """Subset construction; returns (dfa, subset of original states per
    new state).  Only subsets reachable from the initial set are built, and
    the empty successor subset is dropped (the result is a partial DFA).

    Without ``cut`` every subset is exact, as the labelling engine needs,
    since it reads which states each subset holds.  A caller that needs
    only a language may pass a ``cut`` that replaces each subset holding
    an accept-all state, the initial one included, by one with the same
    future (``_absorbing``), and leaves every other subset as it is; a
    subset cut to the empty one is dropped.  Raises DeterminizationCapError
    when more than ``cap`` subsets appear.
    """
    start = frozenset(a.initial)
    if cut is not None:
        start = cut(start)
    subsets, edges = _explore([start], _subset_step(a, cut), cap)
    final = [i for i, s in enumerate(subsets) if s & a.final]
    return (Nfa._built(len(subsets), a, _store(edges), [0], final,
                       name=a.name),
            tuple(subsets))


def determinize(a, cap=DEFAULT_DET_CAP):
    """Language-preserving determinization via the subset construction,
    with accept-all states absorbed (``_absorbing``).  On an automaton
    without them it is ``determinize_with_subsets``'s DFA."""
    return determinize_with_subsets(a, cap, cut=_absorbing(a))[0]


def through_state(a, q):
    """Automaton accepting exactly the words with an accepting run passing
    through ``q``: the concatenation of q's back-language and language.

    States are (state, flag) pairs; the flag flips to 1 upon entering
    ``q`` and accepting requires flag 1 at a final state.  Only the useful
    pairs are built: flag 0 on the states that can reach ``q``, flag 1 on
    those reachable from ``q`` that can reach a final state, and none at
    all when ``q`` cannot reach one.  Every state of the result is on an
    initial-to-final path.
    """
    a._check_state(q)
    live = coreach(a, a.final)
    # a flag-0 pair must reach q, and q a final state
    to_q = coreach(a, [q]) if q in live else _NO_STATES

    def step(node):
        s, flag = node
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
             if flag and s in a.final]
    return Nfa._built(len(nodes), a, _store(edges), range(len(starts)),
                      final)


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
