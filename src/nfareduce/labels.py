"""Per-state error labellings that drive where a reduction is applied.

For the pruning reduction a label over-approximates the probability mass of
the words lost when the state is removed; for the self-loop reduction it
over-approximates the mass of the words gained when the state is turned
into a universal self-loop.  Three variants per reduction trade precision
against computation cost; within each family, variant 1 >= 2 >= 3
pointwise.

Every label is the probability (or weight) of a language derived from one
state, so it only depends on the weakly-connected component that state
lives in.  Labels are therefore computed component by component, which on
union-of-chains automata keeps the determinization and the linear systems
tiny.
"""

from dataclasses import dataclass

from .langprob import prob_lang, weight_lang
from .nfa import (DEFAULT_DET_CAP, Nfa, banguage_nfa, components, reach,
                  restrict_with_map, through_state)

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


def _prefix_universal(a, q):
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


def _prune_labels(sub, p, variant, det_cap):
    """One pruning label vector for one (sub-)automaton.  Only the requested
    variant is computed; the cheap ones stay cheap."""
    n = sub.num_states
    reach_final = [reach(sub, [q]) & sub.final for q in range(n)]

    if variant == 1:
        per_final = {}
        for f in sorted(sub.final):
            per_final[f] = prob_lang(p, banguage_nfa(sub, [f]), det_cap)
        return [sum(per_final[f] for f in sorted(reach_final[q]))
                for q in range(n)]

    if variant == 2:
        by_targets = {}
        values = []
        for q in range(n):
            key = frozenset(reach_final[q])
            if key not in by_targets:
                by_targets[key] = (
                    prob_lang(p, banguage_nfa(sub, key), det_cap)
                    if key else 0.0)
            values.append(by_targets[key])
        return values

    return [prob_lang(p, through_state(sub, q), det_cap) for q in range(n)]


def _selfloop_labels(sub, p, variant, det_cap):
    """One self-loop label vector for one (sub-)automaton."""
    n = sub.num_states
    if variant == 1:
        return [weight_lang(p, banguage_nfa(sub, [q]), det_cap)
                for q in range(n)]

    lab2 = [prob_lang(p, _prefix_universal(sub, q), det_cap)
            for q in range(n)]
    if variant == 2:
        return lab2

    values = []
    for q in range(n):
        through = prob_lang(p, through_state(sub, q), det_cap)
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
    compute = _prune_labels if kind == "prune" else _selfloop_labels
    if by_component:
        comps = components(a)
    else:
        comps = [frozenset(range(a.num_states))] if a.num_states else []

    values = [0.0] * a.num_states
    for comp in comps:
        sub, origins = restrict_with_map(a, comp)
        local = compute(sub, p, variant, det_cap)
        for local_q, orig_q in enumerate(origins):
            values[orig_q] = local[local_q]
    prefix = "p" if kind == "prune" else "sl"
    return StateLabelling(f"{prefix}{variant}", tuple(values))


def label_prune(a, p, variant, by_component=True, det_cap=DEFAULT_DET_CAP):
    """Pruning labels.

    Variant 1 sums the back-language probabilities of the final states
    reachable from q (cached per final state); variant 2 takes the
    probability of the back-language of that whole final set; variant 3
    takes the probability of the words whose accepting runs pass through q.
    """
    return _label(a, p, variant, "prune", by_component, det_cap)


def label_selfloop(a, p, variant, by_component=True,
                   det_cap=DEFAULT_DET_CAP):
    """Self-loop labels.

    Variant 1 is the leftover weight of q's back-language; variant 2 the
    probability of that back-language concatenated with Sigma*; variant 3
    subtracts from variant 2 the mass already accepted through q (tiny
    negative round-off is clamped to zero).
    """
    return _label(a, p, variant, "selfloop", by_component, det_cap)
