"""NFA data model and the automaton algebra the reduction pipeline builds on.

States are dense integer indices ``0 .. num_states-1``.  Symbols are arbitrary
hashable tokens: strings in test mode, ints 0-255 for byte payloads.  The
alphabet is an ordered tuple, and every operation iterates states ascending
and symbols in alphabet order, so outputs are reproducible bit for bit.

Automata are immutable values: operations return new automata and never
mutate their inputs, which makes them safe to share across threads.

Every construction that builds a new automaton is one breadth-first
worklist (``_explore``) over the per-state transition store, and every
reachability question is one closure (``_closure``).
"""

from .errors import AlphabetMismatchError, DeterminizationCapError

DEFAULT_DET_CAP = 1 << 20

_NO_MOVES = {}


class Nfa:
    """Nondeterministic finite automaton over an ordered alphabet.

    Transitions form a relation ``state x symbol -> set of states``, stored
    per state as ``state -> {symbol: sorted successors}`` with states
    ascending and symbols in alphabet order.  There may be several (or zero)
    initial states; a word is accepted if some run from an initial state
    ends in a final state.
    """

    __slots__ = ("num_states", "alphabet", "initial", "final", "name",
                 "_delta", "_sym_index")

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
        """All distinct successors of ``q`` over any symbol."""
        return set().union(*self._delta.get(q, _NO_MOVES).values())

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
    """state -> the set of states with a transition into it."""
    pred = {q: set() for q in range(a.num_states)}
    for src in a._delta:
        for dst in a.neighbors(src):
            pred[dst].add(src)
    return pred


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


def product_with_pairs(a1, a2):
    """Standard product automaton restricted to pairs reachable from the
    initial pairs; returns (automaton, pair-of-origin per product state)."""
    alphabet = same_alphabet(a1, a2)

    def step(pair):
        q1, q2 = pair
        for sym, dsts1 in a1.moves(q1):
            dsts2 = a2.succ(q2, sym)
            for d1 in dsts1:
                for d2 in dsts2:
                    yield sym, (d1, d2)

    starts = [(q1, q2) for q1 in sorted(a1.initial)
              for q2 in sorted(a2.initial)]
    pairs, transitions = _explore(starts, step)
    final = [i for i, (q1, q2) in enumerate(pairs)
             if q1 in a1.final and q2 in a2.final]
    return (Nfa(len(pairs), alphabet, transitions,
                initial=range(len(starts)), final=final),
            tuple(pairs))


def product(a1, a2):
    """Product automaton; accepts the intersection of the two languages."""
    return product_with_pairs(a1, a2)[0]


def is_unambiguous(a):
    """True iff every accepted word has exactly one accepting run.

    Checked on the trimmed self-product: the automaton is ambiguous exactly
    when some off-diagonal pair survives trimming.
    """
    prod, pairs = product_with_pairs(a, a)
    return all(pairs[i][0] == pairs[i][1] for i in trim_survivors(prod))


def determinize_with_subsets(a, cap=DEFAULT_DET_CAP):
    """Subset construction; returns (dfa, subset of original states per
    new state).  Only subsets reachable from the initial set are built, and
    the empty successor subset is dropped (the result is a partial DFA).
    Raises DeterminizationCapError when more than ``cap`` subsets appear.
    """
    order = a._sym_index.__getitem__

    def step(s):
        targets = {}
        for q in s:
            for sym, dsts in a.moves(q):
                targets.setdefault(sym, set()).update(dsts)
        for sym in sorted(targets, key=order):
            yield sym, frozenset(targets[sym])

    subsets, transitions = _explore([frozenset(a.initial)], step, cap)
    final = [i for i, s in enumerate(subsets) if s & a.final]
    return (Nfa(len(subsets), a.alphabet, transitions, initial=[0],
                final=final, name=a.name),
            tuple(subsets))


def determinize(a, cap=DEFAULT_DET_CAP):
    """Language-preserving determinization via the subset construction."""
    return determinize_with_subsets(a, cap)[0]


def through_state(a, q):
    """Automaton accepting exactly the words with an accepting run passing
    through ``q``: the concatenation of q's back-language and language.

    States are (state, flag) pairs over the reachable part; the flag flips
    to 1 upon entering ``q`` and accepting requires flag 1 at a final state.
    """
    a._check_state(q)

    def step(node):
        s, flag = node
        for sym, dsts in a.moves(s):
            for d in dsts:
                yield sym, (d, 1 if (flag or d == q) else 0)

    starts = [(i, 1 if i == q else 0) for i in sorted(a.initial)]
    nodes, transitions = _explore(starts, step)
    final = [i for i, (s, flag) in enumerate(nodes)
             if flag and s in a.final]
    return Nfa(len(nodes), a.alphabet, transitions,
               initial=range(len(starts)), final=final)


def banguage_nfa(a, targets):
    """Copy of ``a`` whose final set is replaced by ``targets``; accepts the
    back-language of the target set."""
    _check_states(a, targets)
    return Nfa(a.num_states, a.alphabet, a.transitions(),
               initial=a.initial, final=targets, name=a.name)


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
