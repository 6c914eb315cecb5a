"""Shared fixtures and oracles for the tests.

- Hand automata and random instance generators, plain and ``hypothesis``.
- ``DictPpa``, the per-symbol dict rows the ``Ppa`` store replaces.
- Constructions the library does not need, built through ``Nfa(...)``
  with every transition checked: the disjoint union, the product
  automaton, the back-language acceptor and the untrimmed through-state
  acceptor; and ``restrict_with_map`` and ``self_loop`` the same way,
  which the library builds without the checks.
- The symmetric-difference DFA unminimized (``symmetric_difference``),
  the first ways of building it (the subset construction of the union,
  cut per side) and of the first-hit DFA (a
  subset that holds the state stops), which the library's trap rule
  must match.
- DFA minimization by table filling over pairs of states
  (``table_filling_size``), which ``langprob._minimal`` is held to.
- Brute-force oracles kept independent of the library's solver pipeline:
  word enumeration (``bf_prob_lang``, ``naive_lang_prob``), fixed-point
  reachability, ``word_weight`` (the mass alive after a word), and 40-digit
  mpmath solves of the library's products.
- Language values by the route of an ambiguity check: determinize only
  an ambiguous automaton, then solve on the trimmed PA x NFA product
  (``lang_value``, ``weight_lang``).
- The per-state label pipelines the six labellings are held to (one
  language probability per final state, final set or state; sl2 on a
  ``prefix_universal`` acceptor rather than a first-hit DFA), and the
  per-word event counts the lockstep ``count_events`` is held to.
- The greedy reductions by the linear scan (``oracle_greedy``), with the
  prune-set minimization by one survivor pass per member
  (``oracle_minimize_prune_set``), which the library replaces with one
  incremental search and a bisection.
- ``byte_rule_set``: a byte-alphabet rule set and model at the paper's
  shape, from the benchmark's generators, with universal sinks or in
  several components on request.
- ``eval_table``, which returns the ``nfa._DifferenceTable`` that
  ``traffic_error`` filled.
"""

import importlib.util
import itertools
import os
import random
from unittest import mock

import mpmath
import numpy as np
from hypothesis import strategies as st

from nfareduce import traffic
from nfareduce import (Nfa, Pa, Ppa, accepts, components, coreach,
                       default_order, determinize_with_subsets,
                       minimize_selfloop_set, parse_nfa, parse_pa,
                       prob_lang, prune_survivors, reach, restrict_with_map,
                       selfloop_survivors, self_loop, trim, trim_survivors,
                       validate_pa, word_prob)
from nfareduce.nfa import (_closure, _difference, _explore, _store,
                           same_alphabet)

ABC = ("a", "b", "c")
AB = ("a", "b")
# an alphabet whose order is not lexical, so alphabet order is tested
BA = ("b", "a")

# digits of the mpmath reference solves
MP_DPS = 40
# most words ``bf_prob_lang`` may enumerate
ENUM_GUARD = 10 ** 7


def a2():
    """4-state automaton accepting {ab, b}; the worked micro example."""
    return Nfa(4, AB, [(0, "a", 1), (1, "b", 2), (0, "b", 3)],
               initial=[0], final=[2, 3])


def canon_dfa(a):
    """BFS renumbering of a deterministic automaton; a canonical form, so
    two isomorphic DFAs compare equal after it."""
    assert len(a.initial) <= 1
    order = []
    seen = set()
    queue = sorted(a.initial)
    while queue:
        q = queue.pop(0)
        if q in seen:
            continue
        seen.add(q)
        order.append(q)
        for sym in a.alphabet:
            queue.extend(a.succ(q, sym))
    pos = {old: new for new, old in enumerate(order)}
    transitions = [(pos[s], sym, pos[d]) for s, sym, d in a.transitions()
                   if s in pos and d in pos]
    return Nfa(len(order), a.alphabet, transitions,
               [pos[q] for q in a.initial if q in pos],
               [pos[q] for q in sorted(a.final) if q in pos])


def naive_closure(seeds, pairs):
    """Least superset of ``seeds`` closed under the (src, dst) ``pairs``,
    by plain fixed-point iteration."""
    reached = set(seeds)
    while True:
        new = {d for s, d in pairs if s in reached} - reached
        if not new:
            return frozenset(reached)
        reached |= new


def naive_trim_survivors(a, avoid=frozenset()):
    """States on some initial-to-final path of ``a`` that avoids the states
    in ``avoid``, from the transitions() triples alone."""
    pairs = {(s, d) for s, _, d in a.transitions()
             if s not in avoid and d not in avoid}
    fwd = naive_closure(a.initial - avoid, pairs)
    bwd = naive_closure(a.final - avoid, {(d, s) for s, d in pairs})
    return fwd & bwd


def naive_components(a):
    """Weakly-connected components ordered by smallest member."""
    pairs = {(s, d) for s, _, d in a.transitions()}
    pairs |= {(d, s) for s, d in pairs}
    comps = []
    for q in range(a.num_states):
        if not any(q in c for c in comps):
            comps.append(naive_closure([q], pairs))
    return comps


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
    """Product automaton of the pairs reachable from the initial pairs;
    returns (automaton, pair of origin per product state)."""
    assert set(a1.alphabet) == set(a2.alphabet)
    pairs = [(q1, q2) for q1 in sorted(a1.initial)
             for q2 in sorted(a2.initial)]
    num_initial = len(pairs)
    index = {pair: i for i, pair in enumerate(pairs)}
    transitions = []
    i = 0
    while i < len(pairs):
        q1, q2 = pairs[i]
        # a1's moves come in alphabet order; a symbol without one adds none
        for sym, dsts in a1.moves(q1):
            for pair in itertools.product(dsts, a2.succ(q2, sym)):
                if pair not in index:
                    index[pair] = len(pairs)
                    pairs.append(pair)
                transitions.append((i, sym, index[pair]))
        i += 1
    final = [i for i, (q1, q2) in enumerate(pairs)
             if q1 in a1.final and q2 in a2.final]
    return (Nfa(len(pairs), a1.alphabet, transitions, range(num_initial),
                final),
            tuple(pairs))


def product(a1, a2):
    """Product automaton; accepts the intersection of the two languages."""
    return product_with_pairs(a1, a2)[0]


def banguage_nfa(a, targets):
    """Copy of ``a`` with ``targets`` as its final states: the acceptor of
    the back-language of that set."""
    return Nfa(a.num_states, a.alphabet, a.transitions(), a.initial,
               targets)


def self_product_unambiguous(a):
    """Ambiguity by the book: build the self-product automaton, trim it,
    and look for a surviving off-diagonal pair."""
    prod, pairs = product_with_pairs(a, a)
    return all(pairs[i][0] == pairs[i][1] for i in trim_survivors(prod))


def through_state(a, q):
    """Acceptor of the words with an accepting run through ``q``: the
    (state, flag) pairs reachable from the initial states, the flag turning
    1 on entering ``q``, final where the flag is 1 at a final state.  It
    is not trimmed."""
    def step(node):
        s, flag = node
        for sym, dsts in a.moves(s):
            for d in dsts:
                yield sym, (d, 1 if (flag or d == q) else 0)

    starts = [(i, 1 if i == q else 0) for i in sorted(a.initial)]
    nodes, edges = _explore(starts, step)
    return Nfa(len(nodes), a.alphabet, zip(*edges), range(len(starts)),
               [i for i, (s, flag) in enumerate(nodes)
                if flag and s in a.final])


def accept_all(a):
    """Final states with a self-loop on every symbol."""
    return frozenset(q for q in a.final
                     if all(q in a.succ(q, sym) for sym in a.alphabet))


def subset_successor(a, s, sym):
    return frozenset(d for q in s for d in a.succ(q, sym))


def symmetric_difference(a1, a2, cap=None):
    """Partial DFA accepting the words in exactly one of L(a1) and L(a2):
    ``nfa._difference`` built by ``_explore``, unminimized, as
    ``nfa._DifferenceTable`` must number and count it.  The pairs are
    numbered as the subsets of the construction on the union of the two
    automata would be.  Raises DeterminizationCapError when more than
    ``cap`` pairs appear."""
    start, step, final = _difference(a1, a2)
    pairs, (src, cols, dst) = _explore([start], step, cap)
    syms = [a1.alphabet[c] for c in cols]
    return Nfa._built(len(pairs), a1, _store((src, syms, dst)), [0],
                      [i for i, pair in enumerate(pairs) if final(pair)])


def union_symmetric_difference(a1, a2):
    """Partial DFA of the words in exactly one of L(a1) and L(a2), as the
    subset construction of their union.  A side's part of a subset that
    holds an accept-all state of that side is cut down to the side's
    smallest one; a subset where both parts hold one is cut to the empty
    one, which is dropped (or, as the initial subset, has no moves)."""
    u = union(a1, a2)
    off = a1.num_states
    sinks = (accept_all(a1), frozenset(q + off for q in accept_all(a2)))
    sides = (frozenset(range(off)), frozenset(range(off, u.num_states)))

    def cut(s):
        held = [not k.isdisjoint(s) for k in sinks]
        if all(held):
            return frozenset()
        for k, side, h in zip(sinks, sides, held):
            if h:
                s = s - side | {min(k)}
        return s

    def step(s):
        for sym in u.alphabet:
            t = cut(subset_successor(u, s, sym))
            if t:
                yield sym, t

    subsets, edges = _explore([cut(frozenset(u.initial))], step)
    final2 = {q + off for q in a2.final}
    return Nfa(len(subsets), u.alphabet, zip(*edges), [0],
               [i for i, s in enumerate(subsets)
                if bool(s & a1.final) != bool(s & final2)])


def stop_first_hit(a, q):
    """DFA of the words that reach ``q`` and have no proper prefix that
    does: the subset construction of q's back-language acceptor (the
    states that can reach q, with q final and without moves), in which a
    subset that holds q is final and has no moves, whatever else it
    holds."""
    to_q = coreach(a, [q])
    back = Nfa(a.num_states, a.alphabet,
               [(s, sym, d) for s, sym, d in a.transitions()
                if s != q and s in to_q and d in to_q],
               a.initial & to_q, [q])

    def step(s):
        if q not in s:
            for sym in a.alphabet:
                t = subset_successor(back, s, sym)
                if t:
                    yield sym, t

    subsets, edges = _explore([frozenset(back.initial)], step)
    return Nfa(len(subsets), a.alphabet, zip(*edges), [0],
               [i for i, s in enumerate(subsets) if q in s])


def nfa_restrict_with_map(a, keep):
    """``restrict_with_map`` through ``Nfa(...)``: the kept transitions
    renumbered, every one checked again."""
    kept = sorted(set(keep))
    pos = {old: new for new, old in enumerate(kept)}
    transitions = [(pos[src], sym, pos[dst])
                   for src, sym, dst in a.transitions()
                   if src in pos and dst in pos]
    return (Nfa(len(kept), a.alphabet, transitions,
                [pos[q] for q in kept if q in a.initial],
                [pos[q] for q in kept if q in a.final], name=a.name),
            tuple(kept))


def nfa_self_loop(a, r):
    """``self_loop`` through ``Nfa(...)``: the transitions of the states
    outside ``r``, and a self-loop on every symbol for each state in it."""
    r = frozenset(r)
    transitions = [(src, sym, dst) for src, sym, dst in a.transitions()
                   if src not in r]
    transitions += [(q, sym, q) for q in sorted(r) for sym in a.alphabet]
    return Nfa(a.num_states, a.alphabet, transitions, a.initial,
               a.final | r, name=a.name)


def same_automaton(x, y):
    """Equal automata whose stores also list states, symbols and
    successors in the same order."""
    return x == y and list(x.transitions()) == list(y.transitions())


def same_dfa_language(d1, d2):
    """Whether two partial DFAs over one alphabet accept the same words:
    no pair of states they reach on one word (None once a side is dead)
    is final on one side only."""
    def succ(d, q, sym):
        nxt = d.succ(q, sym) if q is not None else ()
        return nxt[0] if nxt else None

    def step(pair):
        for sym in d1.alphabet:
            nxt = (succ(d1, pair[0], sym), succ(d2, pair[1], sym))
            if nxt != (None, None):
                yield sym, nxt

    start = (min(d1.initial, default=None), min(d2.initial, default=None))
    pairs, _ = _explore([start], step)
    return all((q1 in d1.final) == (q2 in d2.final) for q1, q2 in pairs)


def table_filling_size(d):
    """The number of states of the minimal partial DFA of ``d``, a DFA
    with initial state 0 whose states are all reachable, by table filling
    over the pairs of its states and None, the dead state that every
    missing move leads to.  A pair is told apart when exactly one of its
    states is final, or when some symbol takes it to a pair told apart.
    The minimal DFA has one state per class of the rest that is not the
    dead state's class, or the initial state alone when that is dead."""
    states = list(range(d.num_states)) + [None]

    def succ(q, sym):
        nxt = d.succ(q, sym) if q is not None else ()
        return nxt[0] if nxt else None

    apart = {(p, q) for p in states for q in states
             if (p in d.final) != (q in d.final)}
    grown = True
    while grown:
        grown = False
        for p in states:
            for q in states:
                if (p, q) not in apart and any(
                        (succ(p, sym), succ(q, sym)) in apart
                        for sym in d.alphabet):
                    apart.add((p, q))
                    grown = True
    if (0, None) not in apart:
        return 1
    reps = []
    for q in states:
        if all((q, r) in apart for r in reps):
            reps.append(q)
    return len(reps) - 1


class DictPpa:
    """A ``Ppa``'s transitions stored as its first version stored them, in
    per-symbol dict rows ``symbol -> {src -> {dst -> weight}}`` re-keyed
    ascending, with the same checks and messages: zero weights dropped, a
    repeated (src, symbol, dst) keeping its last nonzero weight.  The edge
    arrays and rows of ``Ppa`` must read back as these do."""

    def __init__(self, alphabet, num_states, transitions):
        self.alphabet = tuple(alphabet)
        index = {s: i for i, s in enumerate(self.alphabet)}
        trans = {}
        for src, sym, dst, w in transitions:
            if sym not in index:
                raise ValueError(f"transition symbol {sym!r} not in alphabet")
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ValueError(f"transition state out of range: {(src, dst)}")
            w = float(w)
            if w < 0.0:
                raise ValueError("transition weights must be nonnegative")
            if w == 0.0:
                continue
            trans.setdefault(sym, {}).setdefault(src, {})[dst] = w
        self.num_states = num_states
        self._trans = {
            sym: {src: dict(sorted(rows[src].items())) for src in sorted(rows)}
            for sym, rows in sorted(trans.items(),
                                    key=lambda kv: index[kv[0]])}

    def row(self, sym, src):
        return self._trans.get(sym, {}).get(src, {})

    def entries(self):
        for src in range(self.num_states):
            for sym in self.alphabet:
                for dst, w in self.row(sym, src).items():
                    yield src, sym, dst, w

    def out_mass(self, src):
        return sum(w for sym in self.alphabet
                   for w in self.row(sym, src).values())


def ppa_product(p, a, final_weights="model", trimmed=True):
    """The PA x NFA product built as a ``Ppa`` transition by transition,
    over the pairs reachable from the initial pairs and, if ``trimmed``,
    able to reach a final pair; returns (ppa, pair_map)."""
    def step(pair):
        qp, qa = pair
        for sym, dsts in a.moves(qa):
            row = p.row(sym, qp)
            for qa2 in dsts:
                for qp2, w in row.items():
                    yield (sym, w), (qp2, qa2)

    starts = [(qp, qa) for qp in range(p.num_states) if p.initial[qp] > 0.0
              for qa in sorted(a.initial)]
    pairs, edges = _explore(starts, step)

    def is_final(pair):
        qp, qa = pair
        if qa not in a.final:
            return False
        return True if final_weights == "unit" else p.final[qp] > 0.0

    alive = range(len(pairs))
    if trimmed:
        rev = {}
        for i, j in zip(edges[0], edges[2]):
            rev.setdefault(j, []).append(i)
        alive = _closure([i for i, pair in enumerate(pairs)
                          if is_final(pair)], lambda j: rev.get(j, ()))

    kept = [i for i in range(len(pairs)) if i in alive]
    pos = {old: new for new, old in enumerate(kept)}
    kept_pairs = tuple(pairs[i] for i in kept)
    initial = [0.0] * len(kept)
    for new, (qp, qa) in enumerate(kept_pairs):
        if qa in a.initial and p.initial[qp] > 0.0:
            initial[new] = p.initial[qp]
    final = [0.0] * len(kept)
    for new, pair in enumerate(kept_pairs):
        if is_final(pair):
            final[new] = 1.0 if final_weights == "unit" else p.final[pair[0]]
    trans = [(pos[i], sym, pos[j], w) for i, (sym, w), j in zip(*edges)
             if i in alive and j in alive]
    return Ppa(a.alphabet, initial, final, trans), kept_pairs


def ppa_star(ppa):
    """initial . (I - E)^-1 . final of a ``Ppa``, by one dense numpy
    solve."""
    n = ppa.num_states
    if n == 0:
        return 0.0
    m = np.eye(n)
    for src, _sym, dst, w in ppa.entries():
        m[src, dst] -= w
    return float(np.array(ppa.initial)
                 @ np.linalg.solve(m, np.array(ppa.final)))


def lang_value(p, a, final_weights="model"):
    """Probability (or, with ``final_weights="unit"``, weight) of L(a):
    ``a`` is determinized only when the self-product shows it ambiguous,
    then solved on the trimmed PA x NFA product, which is nonsingular for
    an unambiguous automaton."""
    if not self_product_unambiguous(a):
        a = determinize_with_subsets(a)[0]
    return ppa_star(ppa_product(p, a, final_weights)[0])


def weight_lang(p, a):
    """Total weight of L(a) under ``p``: the sum over its words of the
    PA weight without the final weight.  May exceed 1."""
    return lang_value(p, a, "unit")


def mp_solve(n, rows, cols, weight, rhs):
    """x solving (I - M) x = rhs in MP_DPS-digit arithmetic, where M sums
    ``weight`` at (``rows``, ``cols``): sparse Gaussian elimination on the
    diagonal, which an M-matrix admits.  Call inside ``mpmath.workdps``."""
    mat = [{i: mpmath.mpf(1)} for i in range(n)]
    for i, j, w in zip(rows, cols, weight):
        mat[i][j] = mat[i].get(j, mpmath.mpf(0)) - w
    x = [mpmath.mpf(v) for v in rhs]
    for k in range(n):
        pivot = mat[k]
        for i in range(k + 1, n):
            row = mat[i]
            if k in row:
                f = row.pop(k) / pivot[k]
                for j, v in pivot.items():
                    if j > k:
                        row[j] = row.get(j, 0) - f * v
                x[i] -= f * x[k]
    for k in reversed(range(n)):
        x[k] = (x[k] - mpmath.fsum(v * x[j] for j, v in mat[k].items()
                                   if j > k)) / mat[k][k]
    return x


def mp_solve_star(r):
    """initial . (I - E)^-1 . final of the product ``r`` (a ``ProductPpa``)
    as an mpf, in MP_DPS-digit arithmetic: the reference the float solver
    is held to."""
    with mpmath.workdps(MP_DPS):
        x = mp_solve(len(r.pair_map), r.src.tolist(), r.dst.tolist(),
                      r.weight.tolist(), r.final.tolist())
        return mpmath.fsum(w * x[i] for i, w in enumerate(r.initial.tolist()))


def mp_solve_y(r):
    """The row vector initial . (I - E)^-1 of the product ``r``, as a list
    of mpfs in MP_DPS-digit arithmetic: the reference for each entry of the
    float solver's y."""
    with mpmath.workdps(MP_DPS):
        return mp_solve(len(r.pair_map), r.dst.tolist(), r.src.tolist(),
                         r.weight.tolist(), r.initial.tolist())


def mp_lang(p, a, final_weights="model"):
    """Reference probability (or, with ``final_weights="unit"``, weight)
    of L(a): the MP_DPS-digit solve on the trimmed ``ppa_product`` with
    the exact subset construction of a, which absorbs no accept-all
    state."""
    ppa, _ = ppa_product(p, determinize_with_subsets(a)[0], final_weights)
    entries = list(ppa.entries())
    with mpmath.workdps(MP_DPS):
        x = mp_solve(ppa.num_states, [e[0] for e in entries],
                     [e[2] for e in entries], [e[3] for e in entries],
                     ppa.final)
        return mpmath.fsum(w * x[i] for i, w in enumerate(ppa.initial))


def mp_distance(p, a1, a2):
    """Reference distance by inclusion-exclusion, p1 + p2 - 2 p12, in
    MP_DPS-digit arithmetic, where the cancellation costs no float digits."""
    with mpmath.workdps(MP_DPS):
        d = (mp_lang(p, a1) + mp_lang(p, a2)
             - 2 * mp_lang(p, product(a1, a2)))
        return float(d)


def prefix_universal(a, q):
    """Acceptor of (back-language of q) . Sigma*: a fresh universal
    accepting sink fed by q on every symbol.  q stays accepting so that the
    empty continuation is covered; the original final states do not count."""
    sink = a.num_states
    transitions = list(a.transitions())
    for sym in a.alphabet:
        transitions.append((q, sym, sink))
        transitions.append((sink, sym, sink))
    return Nfa(a.num_states + 1, a.alphabet, transitions,
               initial=a.initial, final=[q, sink])


def oracle_prune_labels(sub, p, variant):
    """Pruning labels of one (sub-)automaton, state by state: one
    ``prob_lang`` per final state or per reachable final set, or one
    ``lang_value`` of the words through each state."""
    n = sub.num_states
    reach_final = [reach(sub, [q]) & sub.final for q in range(n)]
    if variant == 1:
        per_final = {f: prob_lang(p, banguage_nfa(sub, [f]))
                     for f in sorted(sub.final)}
        return [sum((per_final[f] for f in sorted(reach_final[q])), 0.0)
                for q in range(n)]
    if variant == 2:
        return [prob_lang(p, banguage_nfa(sub, key)) if key else 0.0
                for key in reach_final]
    return [lang_value(p, through_state(sub, q)) for q in range(n)]


def oracle_selfloop_labels(sub, p, variant):
    """Self-loop labels of one (sub-)automaton, state by state: one
    ``weight_lang`` of the back-language, or one ``prob_lang`` of the
    back-language followed by Sigma*, less the ``lang_value`` of the words
    through q."""
    n = sub.num_states
    if variant == 1:
        return [weight_lang(p, banguage_nfa(sub, [q])) for q in range(n)]
    lab2 = [prob_lang(p, prefix_universal(sub, q)) for q in range(n)]
    if variant == 2:
        return lab2
    return [max(lab2[q] - lang_value(p, through_state(sub, q)), 0.0)
            for q in range(n)]


def oracle_labels(a, p, kind, variant, by_component=True):
    """The labelling ``label_prune`` / ``label_selfloop`` computes, by the
    per-state oracles above.

    It is unreliable on rule sets with a universal accepting sink: on
    ``byte_rule_set(4, "sinks", {0, 2})`` its p3 of state 15 is 7.2x the
    40-digit value, and its sl1 of state 2 is off by 6e-6 relative, while
    the library agrees with ``mp_lang``.  So ``test_labels_sinks.py``
    holds the labels to ``mp_lang`` instead."""
    compute = (oracle_prune_labels if kind == "prune"
               else oracle_selfloop_labels)
    if by_component:
        comps = components(a)
    else:
        comps = [frozenset(range(a.num_states))] if a.num_states else []
    values = [0.0] * a.num_states
    for comp in comps:
        sub, origins = restrict_with_map(a, comp)
        for orig_q, value in zip(origins, compute(sub, p, variant)):
            values[orig_q] = value
    return values


def oracle_minimize_prune_set(a, v, lab):
    """The prune-set minimization by one survivor pass per member: each
    state of ``v``, in descending (label, index) order, is dropped when
    the survivors stay the same without it."""
    target = prune_survivors(a, v)
    kept = set(v)
    for q in sorted(v, key=lambda q: (lab[q], q), reverse=True):
        candidate = kept - {q}
        if prune_survivors(a, candidate) == target:
            kept = candidate
    return frozenset(kept)


def oracle_greedy(a, kind, mode, param, labels):
    """(chosen set, error bound, reduced automaton) of the greedy by the
    linear scan along ``default_order(labels)``.  Size mode sacrifices
    states until the survivors fit ``param``, with one survivor pass per
    step; error mode sacrifices each state whose bound, with the prune
    minimization above, stays within ``param``.  The reduced automaton is
    built through ``Nfa(...)``."""
    def survivors(v):
        if kind == "prune":
            return prune_survivors(a, v)
        return selfloop_survivors(a, v)

    def bound(v):
        if kind == "prune":
            return sum(labels[q]
                       for q in sorted(oracle_minimize_prune_set(a, v, labels)))
        return min(1.0, sum(labels[q]
                            for q in sorted(minimize_selfloop_set(a, v))))

    chosen = set()
    if mode == "size":
        if a.num_states <= param:
            return frozenset(), 0.0, a
        for q in default_order(labels):
            chosen.add(q)
            if len(survivors(chosen)) <= param:
                break
    else:
        for q in default_order(labels):
            if bound(chosen | {q}) <= param:
                chosen.add(q)
    looped = a if kind == "prune" else nfa_self_loop(a, chosen)
    reduced = nfa_restrict_with_map(looped, survivors(chosen))[0]
    return frozenset(chosen), bound(chosen), reduced


def byte_rule_set(count, seed=1, sink_rules=(), groups=1):
    """A Sigma*-prefixed set of ``count`` byte rules from the benchmark's
    generators (``bench/generators.py``), and its model: rules of 8-10
    slots, each with one class and one ``x{1,2}`` repeat, seeded by
    ``"rules:<count>:<seed>"``; the model is learned on the last-byte
    skeleton from a 1,500-word text corpus with 5 % planted rule
    literals.  Ten rules give 102 states in one component.

    The rules numbered in ``sink_rules`` match anywhere: their accepting
    states lead to a universal accepting sink.  With ``groups`` above 1
    the rules are split into that many consecutive groups, each its own
    Sigma*-prefixed set with its own sink, side by side, so the automaton
    has one component per group."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "bench", "generators.py")
    spec = importlib.util.spec_from_file_location("bench_generators", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(f"rules:{count}:{seed}")
    rules = [gen.make_rule(rng, rng.randint(8, 10), class_at=(1,), repeat=4)
             for _ in range(count)]
    literals = [gen.rule_literal(rng, r) for r in rules for _ in range(4)]
    corpus = gen.text_corpus(rng, literals, 1500, 20, 60, 0.05)
    size = -(-count // groups)
    n, transitions, initial, final = 0, [], [], []
    for lo in range(0, count, size):
        k, trans, init, fin = gen.rule_set(
            rules[lo:lo + size],
            {r - lo for r in sink_rules if lo <= r < lo + size})
        transitions += [(src + n, b, dst + n) for src, b, dst in trans]
        initial += [q + n for q in init]
        final += [q + n for q in fin]
        n += k
    return (parse_nfa(gen.fa_text((n, transitions, initial, final))),
            parse_pa(gen.learn_model_text(gen.last_byte_skeleton(), corpus)))


def eval_table(a, b, sample):
    """``traffic_error(a, b, sample)`` and the ``nfa._DifferenceTable`` it
    filled: row 0 is the dead state, every other row one pair of
    ``nfa._difference``."""
    tables = []

    class Recorded(traffic._DifferenceTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    with mock.patch.object(traffic, "_DifferenceTable", Recorded):
        result = traffic.traffic_error(a, b, sample)
    return result, tables[0]


def per_word_count_events(skeleton, corpus):
    """The (transition counts, end counts) arrays of ``count_events``, by
    running the complete DFA ``skeleton`` over each corpus word in turn,
    one symbol at a time."""
    (init,) = skeleton.initial
    trans = np.zeros((skeleton.num_states, len(skeleton.alphabet)), np.int64)
    ends = np.zeros(skeleton.num_states, np.int64)
    for word in corpus:
        q = init
        for sym in word:
            trans[q, skeleton.alphabet.index(sym)] += 1
            (q,) = skeleton.succ(q, sym)
        ends[q] += 1
    return trans, ends


def words_upto(alphabet, max_len):
    for length in range(max_len + 1):
        for w in itertools.product(alphabet, repeat=length):
            yield w


def lang_upto(a, max_len):
    return {w for w in words_upto(a.alphabet, max_len) if accepts(a, w)}


def naive_lang_prob(p, a, max_len):
    """Word-by-word truncated language probability; the slowest, most
    literal oracle."""
    return sum(word_prob(p, w) for w in words_upto(a.alphabet, max_len)
               if accepts(a, w))


def bf_prob_lang(p, a, max_len):
    """Truncated brute-force oracle for prob_lang.

    Returns (lower, tail): ``lower`` is the exact probability mass of the
    accepted words of length <= max_len, ``tail`` the mass of all words
    longer than max_len.  The true language probability lies in
    [lower, lower + tail].

    The sum is organised as a breadth-first sweep over words grouped by the
    NFA subset they reach, which gives exactly the same totals as per-word
    enumeration; the feasibility guard is still expressed in enumerated
    words.
    """
    assert set(p.alphabet) == set(a.alphabet)
    k = len(a.alphabet)
    if sum(k ** i for i in range(max_len + 1)) > ENUM_GUARD:
        raise ValueError(f"enumerating words up to length {max_len} over "
                         f"{k} symbols exceeds the guard of {ENUM_GUARD}")

    n = p.num_states
    mats = {}
    for sym in p.alphabet:
        m = np.zeros((n, n))
        for src in range(n):
            for dst, w in p.row(sym, src).items():
                m[src, dst] = w
        mats[sym] = m
    phi = np.array(p.final)
    alpha = np.array(p.initial)

    start = frozenset(a.initial)
    level = {start: alpha}
    eps_mass = float(alpha @ phi)
    covered = eps_mass
    lower = eps_mass if (start & a.final) else 0.0
    for _ in range(max_len):
        nxt = {}
        for subset in sorted(level, key=sorted):
            vec = level[subset]
            for sym in a.alphabet:
                target = set()
                for q in subset:
                    target.update(a.succ(q, sym))
                target = frozenset(target)
                moved = vec @ mats[sym]
                if target in nxt:
                    nxt[target] = nxt[target] + moved
                else:
                    nxt[target] = moved
        level = nxt
        for subset in sorted(level, key=sorted):
            mass = float(level[subset] @ phi)
            covered += mass
            if subset & a.final:
                lower += mass
    return lower, max(0.0, 1.0 - covered)


def naive_total_mass(p, alphabet, max_len):
    return sum(word_prob(p, w) for w in words_upto(alphabet, max_len))


def word_weight(p, word):
    """Weight of ``word``: initial . T_w . 1, the mass still alive after
    reading it (``word_prob`` with all-one final weights)."""
    vec = list(p.initial)
    for sym in word:
        nxt = [0.0] * p.num_states
        for src, v in enumerate(vec):
            for dst, w in p.row(sym, src).items():
                nxt[dst] += v * w
        vec = nxt
    return sum(vec)


@st.composite
def nfas(draw, min_states=0, max_states=6):
    """A random NFA over BA with up to ``max_states`` states; any number of
    initial states, and up to two successors per state and symbol on
    average."""
    n = draw(st.integers(min_states, max_states))
    if n == 0:
        return Nfa(0, BA)
    states = st.integers(0, n - 1)
    transitions = draw(st.lists(st.tuples(states, st.sampled_from(BA),
                                          states), max_size=4 * max_states))
    return Nfa(n, BA, transitions, draw(st.frozensets(states)),
               draw(st.frozensets(states)))


@st.composite
def trapped_nfas(draw, max_states=6):
    """An ``nfas()`` automaton with accept-all states planted: a random set
    of its states self-looped over BA (and made final), and in one draw of
    four a one-state universal automaton unioned in, so that a subset
    construction starts in an accept-all state."""
    a = draw(nfas(max_states=max_states))
    if a.num_states:
        a = self_loop(a, draw(st.frozensets(st.integers(0, a.num_states - 1))))
    if draw(st.integers(0, 3)) == 0:
        a = union(a, Nfa(1, BA, [(0, sym, 0) for sym in BA], [0], [0]))
    return a


@st.composite
def dfas(draw, max_states=6):
    """A random deterministic automaton over BA: at most one initial state
    and at most one successor per state and symbol; possibly partial."""
    n = draw(st.integers(0, max_states))
    if n == 0:
        return Nfa(0, BA)
    states = st.integers(0, n - 1)
    moves = draw(st.dictionaries(st.tuples(states, st.sampled_from(BA)),
                                 states))
    return Nfa(n, BA, [(q, sym, d) for (q, sym), d in moves.items()],
               draw(st.frozensets(states, max_size=1)),
               draw(st.frozensets(states)))


def random_nfa(rng, max_states=8, alphabet=ABC, single_initial=False,
               acyclic=False):
    """Random trimmed nonempty NFA."""
    while True:
        n = rng.randint(1, max_states)
        transitions = []
        for q in range(n):
            for sym in alphabet:
                if rng.random() < 0.4:
                    targets = range(q + 1, n) if acyclic else range(n)
                    targets = list(targets)
                    if targets:
                        for dst in rng.sample(targets,
                                              k=min(len(targets),
                                                    rng.randint(1, 2))):
                            transitions.append((q, sym, dst))
        if single_initial:
            initial = [rng.randrange(n)]
        else:
            initial = rng.sample(range(n), k=rng.randint(1, n))
        final = rng.sample(range(n), k=rng.randint(1, n))
        a = trim(Nfa(n, alphabet, transitions, initial, final))
        if a.num_states:
            return a


def random_dfa(rng, max_states=5, alphabet=AB):
    """Random deterministic automaton (single initial state, at most one
    successor per symbol); possibly partial."""
    n = rng.randint(1, max_states)
    transitions = []
    for q in range(n):
        for sym in alphabet:
            if rng.random() < 0.7:
                transitions.append((q, sym, rng.randrange(n)))
    return Nfa(n, alphabet, transitions, [rng.randrange(n)],
               rng.sample(range(n), k=rng.randint(0, n)))


def random_pa(rng, max_states=5, alphabet=ABC):
    """Random valid PA: all states keep positive initial and final weight,
    so the support is trim by construction."""
    n = rng.randint(1, max_states)
    initial = [rng.random() + 0.05 for _ in range(n)]
    total = sum(initial)
    initial = [x / total for x in initial]
    transitions = []
    final = []
    for q in range(n):
        weights = {}
        for sym in alphabet:
            for dst in range(n):
                if rng.random() < 0.45:
                    weights[(sym, dst)] = rng.random() + 0.01
        stop = rng.random() + 0.1
        denom = sum(weights.values()) + stop
        final.append(stop / denom)
        for (sym, dst), w in weights.items():
            transitions.append((q, sym, dst, w / denom))
    p = Pa(alphabet, initial, final, transitions)
    assert validate_pa(p) == []
    return p


def sample_word(rng, p):
    """Draw one word from the distribution of a valid PA."""
    states = range(p.num_states)
    q = rng.choices(list(states), weights=p.initial)[0]
    word = []
    while True:
        moves = [(None, None, p.final[q])]
        for sym in p.alphabet:
            for dst, w in p.row(sym, q).items():
                moves.append((sym, dst, w))
        choice = rng.choices(moves, weights=[m[2] for m in moves])[0]
        if choice[0] is None:
            return tuple(word)
        word.append(choice[0])
        q = choice[1]


def tentacles(rng, chains=20, min_len=5, max_len=10, alphabet=ABC):
    """Union of disjoint chains: initial head, accepting tail, one random
    symbol per edge."""
    transitions = []
    initial = []
    final = []
    next_state = 0
    for _ in range(chains):
        length = rng.randint(min_len, max_len)
        head = next_state
        for i in range(length):
            transitions.append((head + i, rng.choice(alphabet), head + i + 1))
        initial.append(head)
        final.append(head + length)
        next_state = head + length + 1
    return Nfa(next_state, alphabet, transitions, initial, final)
