"""Per-state error labellings that drive where a reduction is applied.

For the pruning reduction a label over-approximates the probability mass of
the words lost when the state is removed; for the self-loop reduction it
over-approximates the mass of the words gained when the state is turned
into a universal self-loop.  Three variants per reduction trade precision
against computation cost; within each family, variant 1 >= 2 >= 3
pointwise.

Every label is the probability (or weight) of a language derived from one
state, so it only depends on the weakly-connected component that state
lives in, and labels are computed component by component.  Each component
is first quotiented into its symbol classes, with the PA's weights summed
per class (``langprob._quotient``); every automaton built from it is then
over those classes, and each ``prob_lang`` refines them for its own
automaton.  p1, p2 and sl1 are read off one automaton per component, the
labelling engine: the component is determinized once (under ``det_cap``),
its DFA is multiplied with the PA once, and one solve gives the row vector
y = initial . (I - E)^-1 of that product, the expected number of visits of
each (PA state, subset) pair.  The words that reach q are exactly the
words whose subset contains q, so:

- p1(q) sums, over each final f reachable from q, the y . final of the
  pairs whose subset contains f;
- p2(q) is the y . final of the pairs whose subset meets the finals
  reachable from q;
- sl1(q) is the y . 1 of the pairs whose subset contains q.

p3(q) and the subtrahend of sl3(q) are the words with an accepting run
through q, which a subset does not tell in general.  It does when q
dominates every final it reaches (every run from an initial state to one
of them passes through q; finals that no initial state reaches do not
count): then a word has an accepting run through q exactly when its
subset meets those finals, which is p2's language.  Such a state is
*served*: the dominator tree of each component (``_dominator_intervals``,
Cooper, Harvey and Kennedy's iterative algorithm) picks them, and one
engine, on the component restricted to the states that reach a served
state's finals, gives their labels.  A state is not served when one of
its finals is accept-all, since the engine's exact subsets cannot trap it
and would multiply, nor when some run reaches one of its finals around
it.

The other labels take one ``prob_lang`` of a small DFA built per state,
each under ``det_cap``:

- sl2(q) is the probability of q's first-hit words (``first_hit``, the
  through-state acceptor cut at q, in which every subset that holds q
  becomes {q} and stops) under the continuation-mass model: the
  component's class PA with its final weights replaced by the PA's
  z = (I - T)^-1 . final and its store shared (``Ppa._reweighted``), under
  which a word weighs the probability that a random word starts with it;
- p3(q) of a state that is not served is one ``prob_lang`` of
  ``through_state``, which determinizes that state's acceptor with its
  accept-all states as traps.

Every solve is thus the y of a PA x DFA product.
"""

from dataclasses import dataclass

import numpy as np

from .langprob import (_aligned, _as_prob, _continuation_mass, _quotient,
                       _solve_y, prob_lang, product_pa_nfa)
from .nfa import (DEFAULT_DET_CAP, _accept_all, _predecessors, components,
                  coreach, determinize_with_subsets, first_hit, reach,
                  restrict_with_map, through_state)

# below this share of sl2, a negative sl3 counts as round-off; beyond, it
# signals an internal inconsistency
NEGATIVE_LABEL_TOL = 1e-6


@dataclass(frozen=True)
class StateLabelling:
    """Nonnegative per-state error estimates, one value per state."""

    values: tuple

    def __post_init__(self):
        if any(v < 0.0 for v in self.values):
            raise ValueError("labels must be nonnegative")

    def __getitem__(self, q):
        return self.values[q]

    def __len__(self):
        return len(self.values)


class _Engine:
    """One component's DFA and its PA x DFA product, solved once.

    The subsets are exact (``determinize_with_subsets``): the labels read
    which states each one holds, so it passes no traps.

    ``weight[i]`` and ``prob[i]`` are the y . 1 and y . final of the pairs
    on DFA state ``i``; ``holding[q]`` lists, ascending, the DFA states
    whose subset contains state ``q`` of the component.
    """

    def __init__(self, sub, p, det_cap):
        dfa, subsets = determinize_with_subsets(sub, det_cap)
        r = product_pa_nfa(p, dfa)
        pa_of, dfa_of = np.array(r.pair_map, dtype=np.intp).reshape(-1, 2).T
        self.holding = [[] for _ in range(sub.num_states)]
        for i, s in enumerate(subsets):
            for q in s:
                self.holding[q].append(i)
        y = _solve_y(r)
        phi = np.array(p.final)[pa_of]
        self.weight = np.bincount(dfa_of, y, len(subsets))
        self.prob = np.bincount(dfa_of, y * phi, len(subsets))

    def prob_of(self, states):
        """Probability of the words that reach some state in ``states``."""
        held = sorted(set().union(*(self.holding[q] for q in states)))
        return _as_prob(float(self.prob[held].sum()))

    def weight_of(self, q):
        """Leftover weight of the words that reach ``q``."""
        return float(self.weight[self.holding[q]].sum())


def _dominator_intervals(sub):
    """The dominator tree of ``sub``'s states from its initial ones, as
    preorder intervals: ``q`` dominates ``f`` (every path from an initial
    state to ``f`` passes through ``q``) iff ``lo[q] <= lo[f] < hi[q]``.
    A state that no initial state reaches has ``lo`` None.

    Cooper, Harvey and Kennedy's iterative algorithm ("A Simple, Fast
    Dominance Algorithm", 2001), over a virtual root, numbered ``n``,
    joined to the initial states: in reverse postorder, each state's
    immediate dominator is the nearest common ancestor of its processed
    predecessors', until none changes."""
    n = sub.num_states
    root = n
    pred = _predecessors(sub)
    succ = [sub.neighbors(q) for q in range(n)] + [sorted(sub.initial)]
    post = [None] * (n + 1)
    order = []
    post[root] = -1
    work = [(root, iter(succ[root]))]
    while work:
        v, it = work[-1]
        for w in it:
            if post[w] is None:
                post[w] = -1
                work.append((w, iter(succ[w])))
                break
        else:
            work.pop()
            post[v] = len(order)
            order.append(v)
    idom = [None] * (n + 1)
    idom[root] = root

    def meet(a, b):
        while a != b:
            while post[a] < post[b]:
                a = idom[a]
            while post[b] < post[a]:
                b = idom[b]
        return a

    # reverse postorder, without the root
    rpo = order[-2::-1]
    changed = True
    while changed:
        changed = False
        for v in rpo:
            new = root if v in sub.initial else None
            for u in pred[v]:
                if idom[u] is not None:
                    new = u if new is None else meet(u, new)
            if idom[v] != new:
                idom[v] = new
                changed = True
    children = [[] for _ in range(n + 1)]
    for v in rpo:
        children[idom[v]].append(v)
    lo, hi = [None] * (n + 1), [None] * (n + 1)
    stack = [root]
    count = 0
    while stack:
        v = stack.pop()
        if v < 0:
            hi[~v] = count
            continue
        lo[v] = count
        count += 1
        stack.append(~v)
        stack += children[v]
    return lo, hi


def _served(sub, reach_final):
    """The states whose p3 the engine gives, and the finals it sums for
    each: ``targets[q]``, the finals in ``reach_final[q]`` that some
    initial state reaches, and ``served[q]`` when ``q`` dominates every
    one of them and none accepts all words.

    Every accepting run through a served ``q`` ends in ``targets[q]``, and
    every run from an initial state to one of those passes through ``q``.
    So the words with an accepting run through ``q`` are exactly the words
    whose subset meets ``targets[q]``: p2's language for that final set.
    The other states keep their own through-state acceptor: the finals of
    one that does not dominate them are reached by runs around it, and an
    accept-all final is a trap that the through-state DFA collapses but
    the engine's exact subsets cannot."""
    lo, hi = _dominator_intervals(sub)
    traps = _accept_all(sub)
    served, targets = [], []
    for q, finals in enumerate(reach_final):
        finals = frozenset(f for f in finals if lo[f] is not None)
        targets.append(finals)
        served.append(traps.isdisjoint(finals) and all(
            lo[q] is not None and lo[q] <= lo[f] < hi[q] for f in finals))
    return served, targets


def _through(sub, p, det_cap):
    """p3 of every state of ``sub``, the probability of the words with an
    accepting run through it: for a served state (``_served``), p2 of its
    targets from one engine, on ``sub`` restricted to the states that
    reach some served state's target; for any other state, ``prob_lang``
    of its ``through_state``.  A word's subset in the restriction is its
    subset in ``sub`` less the states that reach no target, so it meets a
    target set exactly when the whole subset does; and the restriction
    leaves out the dead states, and the accept-all states that lead to no
    target, which would multiply the engine's exact subsets.  On a component whose every state reaches a
    served target, the restriction is the whole component and the engine
    is p2's, so a served label is p2's bit for bit."""
    n = sub.num_states
    served, targets = _served(sub, _reach_final(sub))
    goal = frozenset().union(*(t for t, s in zip(targets, served) if s))
    if goal:
        part, kept = restrict_with_map(sub, coreach(sub, goal))
        engine = _Engine(part, p, det_cap)
        pos = {q: i for i, q in enumerate(kept)}
    by_targets = {frozenset(): 0.0}
    values = []
    for q in range(n):
        if not served[q]:
            values.append(prob_lang(p, through_state(sub, q), det_cap))
            continue
        t = targets[q]
        if t not in by_targets:
            by_targets[t] = engine.prob_of([pos[f] for f in t])
        values.append(by_targets[t])
    return values


def _reach_final(sub):
    return [reach(sub, [q]) & sub.final for q in range(sub.num_states)]


def _prune_labels(sub, p, variant, det_cap):
    """One pruning label vector for one (sub-)automaton.  Only the requested
    variant is computed; the cheap ones stay cheap."""
    if variant == 3:
        return _through(sub, p, det_cap)
    engine = _Engine(sub, p, det_cap)
    reach_final = _reach_final(sub)
    if variant == 1:
        per_final = {f: engine.prob_of([f]) for f in sorted(sub.final)}
        return [sum((per_final[f] for f in sorted(targets)), 0.0)
                for targets in reach_final]
    by_targets = {}
    for targets in reach_final:
        if targets not in by_targets:
            by_targets[targets] = engine.prob_of(targets)
    return [by_targets[targets] for targets in reach_final]


def _selfloop_labels(sub, p, variant, det_cap, pz):
    """One self-loop label vector for one (sub-)automaton; ``pz`` is the
    continuation-mass model of ``p``."""
    n = sub.num_states
    if variant == 1:
        engine = _Engine(sub, p, det_cap)
        return [engine.weight_of(q) for q in range(n)]

    lab2 = [prob_lang(pz, first_hit(sub, q, det_cap)) for q in range(n)]
    if variant == 2:
        return lab2

    values = []
    for q, through in enumerate(_through(sub, p, det_cap)):
        val = lab2[q] - through
        if val < -NEGATIVE_LABEL_TOL * lab2[q]:
            raise RuntimeError(
                f"self-loop label 3 of state {q} is {val!r}; expected >= 0 "
                "(internal error)")
        values.append(max(val, 0.0))
    return values


def _label(a, p, variant, kind, det_cap):
    if variant not in (1, 2, 3):
        raise ValueError(f"label variant must be 1, 2 or 3, got {variant!r}")
    # z too is summed in the automaton's alphabet order
    p = _aligned(p, a)
    z = (_continuation_mass(p).tolist()
         if kind == "selfloop" and variant > 1 else None)
    values = [0.0] * a.num_states
    for comp in components(a):
        sub, origins = restrict_with_map(a, comp)
        pc, (sub,) = _quotient(p, [sub])
        if kind == "prune":
            local = _prune_labels(sub, pc, variant, det_cap)
        else:
            # the words under pz weigh the probability of their extensions
            pz = pc._reweighted(z) if z is not None else None
            local = _selfloop_labels(sub, pc, variant, det_cap, pz)
        for orig_q, value in zip(origins, local):
            values[orig_q] = value
    return StateLabelling(tuple(values))


def label_prune(a, p, variant, det_cap=DEFAULT_DET_CAP):
    """Pruning labels.

    Variant 1 sums the back-language probabilities of the final states
    reachable from q; variant 2 takes the probability of the back-language
    of that whole final set (cached per set); variant 3 takes the
    probability of the words whose accepting runs pass through q.
    Variants 1 and 2 determinize each component once, under ``det_cap``.
    Variant 3 is variant 2's value wherever q dominates the finals it
    reaches and none of them accepts all words, from one determinization
    of the component restricted to the states that reach such finals;
    every other state determinizes its own through-state acceptor, under
    the same cap.
    """
    return _label(a, p, variant, "prune", det_cap)


def label_selfloop(a, p, variant, det_cap=DEFAULT_DET_CAP):
    """Self-loop labels.

    Variant 1 is the leftover weight of q's back-language; variant 2 the
    probability of that back-language concatenated with Sigma*; variant 3
    subtracts from variant 2 the mass already accepted through q (tiny
    negative round-off is clamped to zero).  Variant 1 determinizes each
    component once, under ``det_cap``; variant 2 builds each state's
    first-hit DFA instead, under the same cap, and takes its probability
    under the continuation-mass model; variant 3 also takes prune
    variant 3, by its route.
    """
    return _label(a, p, variant, "selfloop", det_cap)
