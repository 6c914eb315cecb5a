"""Per-state error labellings that drive where a reduction is applied.

For the pruning reduction a label over-approximates the probability mass of
the words lost when the state is removed; for the self-loop reduction it
over-approximates the mass of the words gained when the state is turned
into a universal self-loop.  Three variants per reduction trade precision
against computation cost; within each family, variant 1 >= 2 >= 3
pointwise.

Every label is the probability (or weight) of a language derived from one
state, so it only depends on the weakly-connected component that state
lives in, and labels are computed component by component.  Most of them
are read off one automaton per component: the component is determinized
once (under ``det_cap``), its DFA is multiplied with the PA once, untrimmed,
and one solve gives the row vector y = initial . (I - E)^-1 of that
product, the expected number of visits of each (PA state, subset) pair.
The words that reach q are exactly the words whose subset contains q, so:

- p1(q) sums, over each final f reachable from q, the y . final of the
  pairs whose subset contains f;
- p2(q) is the y . final of the pairs whose subset meets the finals
  reachable from q;
- sl1(q) is the y . 1 of the pairs whose subset contains q;
- sl2(q) is one absorbing solve per q on the same product: the pairs whose
  subset contains q lose their outgoing edges, and the mass that lands on
  them is weighted by each PA state's continuation mass (I - T)^-1 . final.
  Only the states that can reach q matter, so the solve runs on the
  product lumped by each subset's trace on them, which is exact and, on
  a rule set, small.

p3 and the subtrahend of sl3 are the words with an accepting run through
q, which a subset does not tell; they stay one ``prob_lang`` of
``through_state`` per state.
"""

from dataclasses import dataclass

import numpy as np

from .langprob import (ProductPpa, _as_prob, _continuation_mass,
                       _solve_star, _solve_y, prob_lang, product_pa_nfa)
from .nfa import (DEFAULT_DET_CAP, Nfa, _closure, components, coreach,
                  determinize_with_subsets, reach, restrict_with_map,
                  through_state)

# below this, a tiny negative variant-3 value counts as round-off; beyond,
# it signals an internal inconsistency
NEGATIVE_LABEL_TOL = 1e-6


@dataclass(frozen=True)
class StateLabelling:
    """Nonnegative per-state error estimates, one value per state."""

    variant: str  # one of p1, p2, p3, sl1, sl2, sl3
    values: tuple

    def __post_init__(self):
        if any(v < 0.0 for v in self.values):
            raise ValueError("labels must be nonnegative")

    def __getitem__(self, q):
        return self.values[q]

    def __len__(self):
        return len(self.values)


class _Engine:
    """One component's DFA and its untrimmed PA x DFA product, solved once.

    ``weight[i]`` and ``prob[i]`` are the y . 1 and y . final of the pairs
    on DFA state ``i``; ``holding[q]`` lists, ascending, the DFA states
    whose subset contains state ``q`` of the component.
    """

    def __init__(self, sub, p, det_cap):
        dfa, subsets = determinize_with_subsets(sub, det_cap)
        self.sub, self.subsets, self.num_pa = sub, subsets, p.num_states
        every = Nfa._built(dfa.num_states, dfa, dfa._delta, dfa.initial,
                           range(dfa.num_states))
        self.r = r = product_pa_nfa(p, every, "unit")
        pairs = np.array(r.pair_map, dtype=np.intp).reshape(-1, 2)
        self.pa_of, self.dfa_of = pairs[:, 0], pairs[:, 1]
        self.holding = [[] for _ in range(sub.num_states)]
        for i, s in enumerate(subsets):
            for q in s:
                self.holding[q].append(i)
        y = _solve_y(r)
        phi = np.array(p.final)[self.pa_of]
        self.weight = np.bincount(self.dfa_of, y, len(subsets))
        self.prob = np.bincount(self.dfa_of, y * phi, len(subsets))

    def prob_of(self, states):
        """Probability of the words that reach some state in ``states``."""
        held = sorted(set().union(*(self.holding[q] for q in states)))
        return _as_prob(float(self.prob[held].sum()))

    def weight_of(self, q):
        """Leftover weight of the words that reach ``q``."""
        return float(self.weight[self.holding[q]].sum())

    def first_hit(self, q, z):
        """Probability of the words with a prefix that reaches ``q``.

        This is one absorbing solve on the product: the pairs whose subset
        holds q lose their outgoing edges and are final with the
        continuation mass z of their PA state.  Only the states that can
        reach q matter, so each subset is cut down to its trace on them.
        Subsets with one trace move alike (a state that steps into a
        trace state can reach q, so it is in the trace too), so the pairs
        with one PA state and one trace merge into one node: an exact
        lumping, which for a rule set leaves about one node per rule
        position before q.  An empty trace never reaches q and is dropped,
        and so are the nodes that cannot be reached before q.
        """
        to_q = coreach(self.sub, [q])
        traces = {}
        trace_of = []
        for s in self.subsets:
            t = s & to_q
            trace_of.append(traces.setdefault(t, len(traces)) if t else -1)
        if trace_of[0] < 0:
            return 0.0
        r, num_pa = self.r, self.num_pa
        pair_trace = np.array(trace_of, dtype=np.intp)[self.dfa_of]
        live = np.flatnonzero(pair_trace >= 0)
        keys, first, inverse = np.unique(
            pair_trace[live] * num_pa + self.pa_of[live], return_index=True,
            return_inverse=True)
        node = np.full(len(pair_trace), -1, dtype=np.intp)
        node[live] = inverse
        stop = np.array([q in t for t in traces])[keys // num_pa]
        # the edges of one pair per node, out of the nodes that are not
        # absorbing, into live nodes
        rep = np.zeros(len(pair_trace), dtype=bool)
        rep[live[first]] = True
        src, dst = node[r.src], node[r.dst]
        e = rep[r.src] & (dst >= 0) & ~np.append(stop, True)[src]
        src, dst, sym, weight = src[e], dst[e], r.sym[e], r.weight[e]

        n = len(keys)
        succ = [[] for _ in keys]
        arcs = np.sort(src * n + dst)
        for arc in arcs[np.diff(arcs, prepend=-1) != 0].tolist():
            succ[arc // n].append(arc % n)
        starts = np.flatnonzero(r.initial)
        alive = _closure(node[starts].tolist(), succ.__getitem__)
        kept = np.array(sorted(alive), dtype=np.intp)
        pos = np.full(n, -1, dtype=np.intp)
        pos[kept] = np.arange(len(kept))
        initial = np.zeros(n)
        initial[node[starts]] = r.initial[starts]
        final = np.where(stop, z[keys % num_pa], 0.0)
        e = pos[src] >= 0
        src, dst, sym, weight = pos[src[e]], pos[dst[e]], sym[e], weight[e]
        perm = np.lexsort((dst, sym, src))
        lumped = ProductPpa(
            r.alphabet, tuple(zip((keys[kept] % num_pa).tolist(),
                                  (keys[kept] // num_pa).tolist())),
            initial[kept], final[kept], src[perm], sym[perm], dst[perm],
            weight[perm])
        return _as_prob(_solve_star(lumped))


def _through(sub, p, det_cap):
    return [prob_lang(p, through_state(sub, q), det_cap)
            for q in range(sub.num_states)]


def _prune_labels(sub, p, variant, det_cap):
    """One pruning label vector for one (sub-)automaton.  Only the requested
    variant is computed; the cheap ones stay cheap."""
    if variant == 3:
        return _through(sub, p, det_cap)
    n = sub.num_states
    engine = _Engine(sub, p, det_cap)
    reach_final = [reach(sub, [q]) & sub.final for q in range(n)]
    if variant == 1:
        per_final = {f: engine.prob_of([f]) for f in sorted(sub.final)}
        return [sum((per_final[f] for f in sorted(reach_final[q])), 0.0)
                for q in range(n)]
    by_targets = {}
    for targets in reach_final:
        if targets not in by_targets:
            by_targets[targets] = engine.prob_of(targets)
    return [by_targets[targets] for targets in reach_final]


def _selfloop_labels(sub, p, variant, det_cap, z):
    """One self-loop label vector for one (sub-)automaton."""
    n = sub.num_states
    engine = _Engine(sub, p, det_cap)
    if variant == 1:
        return [engine.weight_of(q) for q in range(n)]

    by_held = {}
    lab2 = []
    for q in range(n):
        held = tuple(engine.holding[q])
        if held not in by_held:
            by_held[held] = engine.first_hit(q, z)
        lab2.append(by_held[held])
    if variant == 2:
        return lab2

    values = []
    for q, through in enumerate(_through(sub, p, det_cap)):
        val = lab2[q] - through
        if val < -NEGATIVE_LABEL_TOL:
            raise RuntimeError(
                f"self-loop label 3 of state {q} is {val!r}; expected >= 0 "
                "(internal error)")
        values.append(max(val, 0.0))
    return values


def _label(a, p, variant, kind, by_component, det_cap):
    if variant not in (1, 2, 3):
        raise ValueError(f"label variant must be 1, 2 or 3, got {variant!r}")
    z = (_continuation_mass(p) if kind == "selfloop" and variant > 1
         else None)
    if by_component:
        comps = components(a)
    else:
        comps = [frozenset(range(a.num_states))] if a.num_states else []

    values = [0.0] * a.num_states
    for comp in comps:
        sub, origins = restrict_with_map(a, comp)
        local = (_prune_labels(sub, p, variant, det_cap) if kind == "prune"
                 else _selfloop_labels(sub, p, variant, det_cap, z))
        for orig_q, value in zip(origins, local):
            values[orig_q] = value
    prefix = "p" if kind == "prune" else "sl"
    return StateLabelling(f"{prefix}{variant}", tuple(values))


def label_prune(a, p, variant, by_component=True, det_cap=DEFAULT_DET_CAP):
    """Pruning labels.

    Variant 1 sums the back-language probabilities of the final states
    reachable from q; variant 2 takes the probability of the back-language
    of that whole final set (cached per set); variant 3 takes the
    probability of the words whose accepting runs pass through q.
    Variants 1 and 2 determinize each component once, under ``det_cap``.
    """
    return _label(a, p, variant, "prune", by_component, det_cap)


def label_selfloop(a, p, variant, by_component=True,
                   det_cap=DEFAULT_DET_CAP):
    """Self-loop labels.

    Variant 1 is the leftover weight of q's back-language; variant 2 the
    probability of that back-language concatenated with Sigma*; variant 3
    subtracts from variant 2 the mass already accepted through q (tiny
    negative round-off is clamped to zero).  Every variant determinizes
    each component once, under ``det_cap``.
    """
    return _label(a, p, variant, "selfloop", by_component, det_cap)
