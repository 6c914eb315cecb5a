"""Probabilistic word models: PA and PPA representation plus the
length-exponential reference model.

A probabilistic automaton (PA) assigns a word ``w = a1..ak`` the probability
``initial . T_a1 ... T_ak . final`` and, when its two stochasticity
conditions hold, defines a distribution over all words.  A
pseudo-probabilistic automaton (PPA) has the same shape with no
stochasticity demands; products of a PA with an NFA are generally only PPAs.

The transitions are stored once and sparsely, since learned traffic models
touch only a tiny fraction of state pairs: as edge arrays, which the solver
reads, and per-state rows, which the PA x DFA product walks.
"""

import numpy as np

from .nfa import Nfa, trim_survivors

STOCHASTIC_TOL = 1e-9


class Ppa:
    """Pseudo-probabilistic automaton: nonnegative weights, no constraints.

    Edge ``e`` is the transition ``src[e] -alphabet[sym[e]]-> dst[e]`` of
    weight ``weight[e]``, numbered by source, alphabet index, then target.
    ``_rows`` maps each state with transitions to ``{symbol: ((edge,
    target), ...)}``, symbols in alphabet order and targets ascending.
    """

    __slots__ = ("num_states", "alphabet", "initial", "final", "name",
                 "_sym_index", "src", "sym", "dst", "weight", "_rows")

    def __init__(self, alphabet, initial, final, transitions=(), name=None):
        """``transitions`` is an iterable of (src, symbol, dst, weight)
        quadruples; zero weights are dropped, negative ones rejected, and a
        repeated (src, symbol, dst) keeps its last nonzero weight."""
        alphabet = tuple(alphabet)
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet contains duplicate symbols")
        initial = tuple(float(x) for x in initial)
        final = tuple(float(x) for x in final)
        if len(initial) != len(final):
            raise ValueError("initial and final weight vectors differ in length")
        if any(x < 0.0 for x in initial) or any(x < 0.0 for x in final):
            raise ValueError("weights must be nonnegative")

        self.alphabet = alphabet
        self._sym_index = {s: i for i, s in enumerate(alphabet)}
        self.num_states = len(initial)
        self.initial = initial
        self.final = final
        self.name = name

        trans = {}
        for src, sym, dst, w in transitions:
            if sym not in self._sym_index:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                raise ValueError(f"transition state out of range: {(src, dst)}")
            w = float(w)
            if w < 0.0:
                raise ValueError("transition weights must be nonnegative")
            if w != 0.0:
                trans[src, self._sym_index[sym], dst] = w
        keys = sorted(trans)
        cols = list(zip(*keys)) or [()] * 3
        self._fill(*(np.array(c, np.intp) for c in cols),
                   np.array([trans[k] for k in keys], dtype=float))

    def _fill(self, src, sym, dst, weight):
        """Take the edge arrays, already in edge order, as the store, and
        index them by per-state rows."""
        self.src, self.sym, self.dst, self.weight = src, sym, dst, weight
        self._rows = rows = {}
        alphabet = self.alphabet
        for e, (s, k, d) in enumerate(zip(src.tolist(), sym.tolist(),
                                          dst.tolist())):
            row = rows.get(s)
            if row is None:
                row = rows[s] = {}
            x = alphabet[k]
            row[x] = row.get(x, ()) + ((e, d),)

    def _copy(self):
        """A ``Ppa`` sharing every slot of this one."""
        p = object.__new__(Ppa)
        for slot in Ppa.__slots__:
            setattr(p, slot, getattr(self, slot))
        return p

    def _reweighted(self, final):
        """This automaton with the final weights ``final``, sharing its
        transition store; nothing is checked, as in ``Nfa._built``."""
        p = self._copy()
        p.final = tuple(final)
        return p

    def _summed(self, alphabet, classes):
        """This automaton over ``alphabet``, whose symbol ``k`` stands for
        the symbols ``i`` of this one with ``classes[i] == k``: the weights
        of the edges with one source, class and target are summed, in edge
        order.  Nothing is checked, as in ``_reweighted``."""
        n = self.num_states
        # one integer per (source, class, target), in edge order
        key = (self.src * len(alphabet) + classes[self.sym]) * n + self.dst
        order = np.argsort(key, kind="stable")
        key = key[order]
        # each run of equal keys is one edge
        new = np.ones(len(key), bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        key = key[starts]
        p = self._copy()
        p.alphabet = alphabet
        p._sym_index = {s: i for i, s in enumerate(alphabet)}
        p._fill(key // (len(alphabet) * n), key // n % len(alphabet),
                key % n, np.add.reduceat(self.weight[order], starts))
        return p

    def row(self, sym, src):
        """Sparse transition row for (src, sym) as a dst -> weight dict."""
        return {dst: self.weight.item(e)
                for e, dst in self._rows.get(src, {}).get(sym, ())}

    def entries(self):
        """Iterator over the (src, sym, dst, weight) quadruples in edge
        order: by source, alphabet index, then target."""
        return zip(self.src.tolist(),
                   [self.alphabet[k] for k in self.sym.tolist()],
                   self.dst.tolist(), self.weight.tolist())

    def out_mass(self, src):
        """Total outgoing transition weight of ``src`` over all symbols."""
        return sum(self.weight.item(e)
                   for out in self._rows.get(src, {}).values()
                   for e, _dst in out)

    def __len__(self):
        return self.num_states

    def __repr__(self):
        kind = type(self).__name__
        return (f"{kind}(states={self.num_states}, "
                f"symbols={len(self.alphabet)})")


class Pa(Ppa):
    """Probabilistic automaton.

    Construction compacts the automaton to its trimmed support (states on a
    path from a positive-initial to a positive-final state) and renormalizes
    nothing: if trimming removes probability mass, validation reports the
    broken stochasticity condition rather than hiding a modelling error.
    """

    def __init__(self, alphabet, initial, final, transitions=(), name=None):
        super().__init__(alphabet, initial, final, transitions, name)
        surv = trim_survivors(support(self))
        if len(surv) != self.num_states:
            kept = sorted(surv)
            pos = {old: new for new, old in enumerate(kept)}
            trans = [(pos[s], sym, pos[d], w)
                     for s, sym, d, w in self.entries()
                     if s in pos and d in pos]
            super().__init__(alphabet,
                             [self.initial[q] for q in kept],
                             [self.final[q] for q in kept],
                             trans, name)


def support(p):
    """NFA of the strictly positive weights of a PA/PPA."""
    transitions = [(src, sym, dst) for src, sym, dst, w in p.entries() if w > 0.0]
    return Nfa(p.num_states, p.alphabet, transitions,
               initial=[i for i, x in enumerate(p.initial) if x > 0.0],
               final=[i for i, x in enumerate(p.final) if x > 0.0],
               name=p.name)


def validate_pa(p):
    """Diagnostics for the PA conditions; an empty list means valid.

    Checks that the initial weights sum to 1, that accepting or leaving
    each state has total probability 1, that all entries lie in [0, 1],
    that the support is trim and, when all that holds, that the words have
    total probability 1.  The last is not implied by the others within
    their tolerance: a state that loops with mass 1 - 1e-12 and accepts
    with mass 1e-9 passes the per-state check, but its words sum to 1000.
    """
    tol = STOCHASTIC_TOL
    diags = []
    total = sum(p.initial)
    if abs(total - 1.0) > tol:
        diags.append(f"initial weights sum to {total!r}, expected 1")
    for i, x in enumerate(p.initial):
        if x < -tol or x > 1.0 + tol:
            diags.append(f"initial weight of state {i} outside [0, 1]: {x!r}")
    for i, x in enumerate(p.final):
        if x < -tol or x > 1.0 + tol:
            diags.append(f"final weight of state {i} outside [0, 1]: {x!r}")
    for src, sym, dst, w in p.entries():
        if w < -tol or w > 1.0 + tol:
            diags.append(
                f"transition {src} -{sym!r}-> {dst} outside [0, 1]: {w!r}")
    for i in range(p.num_states):
        out = p.out_mass(i) + p.final[i]
        if abs(out - 1.0) > tol:
            diags.append(
                f"state {i}: accept-or-leave mass is {out!r}, expected 1")
    if len(trim_survivors(support(p))) != p.num_states:
        diags.append("support is not trim")
    if not diags:
        diags = _total_mass_diags(p)
    return diags


def _total_mass_diags(p):
    """Diagnostics for the total probability of the words, initial . z
    with z = (I - T)^-1 . final the continuation mass of each state."""
    # langprob builds on this module, so its solver is imported on use
    from .langprob import _continuation_mass
    try:
        z = _continuation_mass(p)
    except RuntimeError:
        return ["transition matrix has spectral radius >= 1 "
                "(singular I - T)"]
    if not (z > 0.0).all():
        return ["transition matrix has spectral radius >= 1 "
                "(a state's continuation mass is not positive)"]
    mass = float(sum(x * w for x, w in zip(p.initial, z.tolist())))
    if not abs(mass - 1.0) <= STOCHASTIC_TOL:
        return [f"words have total probability {mass!r}, expected 1"]
    return []


def _propagate(p, word):
    """Row vector ``initial . T_w`` as a list of floats."""
    vec = list(p.initial)
    for sym in word:
        if sym not in p._sym_index:
            raise ValueError(f"symbol {sym!r} not in alphabet")
        nxt = [0.0] * p.num_states
        for i, v in enumerate(vec):
            if v:
                for j, w in p.row(sym, i).items():
                    nxt[j] += v * w
        vec = nxt
    return vec


def word_prob(p, word):
    """Probability of ``word``: initial . T_w . final."""
    vec = _propagate(p, word)
    return sum(v * f for v, f in zip(vec, p.final))


def make_p_exp(alphabet):
    """One-state PA giving every word w probability mu^(len(w)+1) with
    mu = 1 / (len(alphabet) + 1); an exponential distribution in the length
    that assigns every word a nonzero probability."""
    alphabet = tuple(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    mu = 1.0 / (len(alphabet) + 1)
    transitions = [(0, sym, 0, mu) for sym in alphabet]
    return Pa(alphabet, [1.0], [mu], transitions, name="p_exp")
