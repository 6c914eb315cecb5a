"""Per-state error labellings that drive where a reduction is applied.

For the pruning reduction a label over-approximates the probability mass of
the words lost when the state is removed; for the self-loop reduction it
over-approximates the mass of the words gained when the state is turned
into a universal self-loop.  Three variants per reduction trade precision
against computation cost; within each family, variant 1 >= 2 >= 3
pointwise.

Every label is the probability (or weight) of a language derived from one
state, so it only depends on the weakly-connected component that state
lives in, and labels are computed component by component.  p1, p2 and sl1
are read off one automaton per component, the labelling engine: the
component is determinized once (under ``det_cap``), its DFA is multiplied
with the PA once, and one solve gives the row vector
y = initial . (I - E)^-1 of that product, the expected number of visits of
each (PA state, subset) pair.  The words that reach q are exactly the
words whose subset contains q, so:

- p1(q) sums, over each final f reachable from q, the y . final of the
  pairs whose subset contains f;
- p2(q) is the y . final of the pairs whose subset meets the finals
  reachable from q;
- sl1(q) is the y . 1 of the pairs whose subset contains q.

The other three labels take small DFAs built per state, each under
``det_cap``:

- sl2(q) sums the y of the product with q's first-hit DFA (``first_hit``,
  in which every subset that holds q becomes {q} and stops) over the
  pairs on {q}, weighted by each PA state's continuation mass
  (I - T)^-1 . final;
- p3(q) and the subtrahend of sl3(q) are the words with an accepting run
  through q, which a subset does not tell: one ``prob_lang`` of
  ``through_state``, which determinizes that state's acceptor.

Every solve is thus the y of a PA x DFA product.
"""

from dataclasses import dataclass

import numpy as np

from .langprob import (_as_prob, _continuation_mass, _solve_y, prob_lang,
                       product_pa_nfa)
from .nfa import (DEFAULT_DET_CAP, components, determinize_with_subsets,
                  first_hit, reach, restrict_with_map, same_alphabet,
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


def _first_hit_prob(sub, p, q, z, det_cap):
    """Probability of the words with a prefix that reaches ``q``: the y of
    the PA x DFA product of q's first-hit DFA, on the pairs of its one
    final state {q}, weighted by the continuation mass z of their PA
    state."""
    dfa = first_hit(sub, q, det_cap)
    if not dfa.final:
        return 0.0
    (final,) = dfa.final
    r = product_pa_nfa(p, dfa)
    pa_of, dfa_of = np.array(r.pair_map, dtype=np.intp).reshape(-1, 2).T
    hit = dfa_of == final
    return _as_prob(float(_solve_y(r)[hit] @ z[pa_of[hit]]))


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
    if variant == 1:
        engine = _Engine(sub, p, det_cap)
        return [engine.weight_of(q) for q in range(n)]

    lab2 = [_first_hit_prob(sub, p, q, z, det_cap) for q in range(n)]
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


def _label(a, p, variant, kind, det_cap):
    if variant not in (1, 2, 3):
        raise ValueError(f"label variant must be 1, 2 or 3, got {variant!r}")
    same_alphabet(p, a)
    z = (_continuation_mass(p) if kind == "selfloop" and variant > 1
         else None)
    values = [0.0] * a.num_states
    for comp in components(a):
        sub, origins = restrict_with_map(a, comp)
        local = (_prune_labels(sub, p, variant, det_cap) if kind == "prune"
                 else _selfloop_labels(sub, p, variant, det_cap, z))
        for orig_q, value in zip(origins, local):
            values[orig_q] = value
    prefix = "p" if kind == "prune" else "sl"
    return StateLabelling(f"{prefix}{variant}", tuple(values))


def label_prune(a, p, variant, det_cap=DEFAULT_DET_CAP):
    """Pruning labels.

    Variant 1 sums the back-language probabilities of the final states
    reachable from q; variant 2 takes the probability of the back-language
    of that whole final set (cached per set); variant 3 takes the
    probability of the words whose accepting runs pass through q.
    Variants 1 and 2 determinize each component once, under ``det_cap``;
    variant 3 determinizes each state's through-state acceptor instead.
    """
    return _label(a, p, variant, "prune", det_cap)


def label_selfloop(a, p, variant, det_cap=DEFAULT_DET_CAP):
    """Self-loop labels.

    Variant 1 is the leftover weight of q's back-language; variant 2 the
    probability of that back-language concatenated with Sigma*; variant 3
    subtracts from variant 2 the mass already accepted through q (tiny
    negative round-off is clamped to zero).  Variant 1 determinizes each
    component once, under ``det_cap``; variant 2 builds each state's
    first-hit DFA instead, under the same cap, and variant 3 also
    determinizes each state's through-state acceptor, as prune variant 3
    does.
    """
    return _label(a, p, variant, "selfloop", det_cap)
