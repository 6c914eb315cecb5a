"""The two reduction operators, their certified error bounds, and the
greedy size-driven and error-driven algorithms.

Pruning removes states and trims, so the reduced language is a subset of
the original; self-looping traps states with universal self-loops (made
accepting) and trims, so the reduced language is a superset.  Both come
with an error function whose value provably bounds the probabilistic
distance between the original and the reduced automaton.  Inputs are
assumed to be trim.

Both greedy algorithms choose, on any input, trim or not, what their
plain linear scans choose.  The error-driven greedy minimizes each
candidate prune set in one linear pass, an incremental search
(``minimize_prune_set``), not one survivor pass per member.  The
size-driven greedy bisects over the prefixes of its label order, since
sacrificing one more state never adds a survivor.  The one exception is
self-looping a dead state (one that cannot reach a final state), which
makes it final and can revive the states that reach it; so the bisection
stays within the runs of the order between dead states.
"""

import time
from dataclasses import dataclass

from .labels import label_prune, label_selfloop
from .langprob import _aligned, _quotient, prob_lang
from .nfa import (DEFAULT_DET_CAP, Nfa, _check_states, _closure,
                  _DifferenceTable, _live_states, _minimal, _predecessors,
                  restrict, same_alphabet, self_loop)

KINDS = ("prune", "selfloop")
MODES = ("size", "error")


@dataclass(frozen=True)
class ReductionConfig:
    """What to reduce and how far.

    ``param`` is the state bound n in size mode (an integer >= 1) and the
    error budget in error mode (within [0, 1]).
    """

    kind: str
    label_variant: int
    mode: str
    param: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.label_variant not in (1, 2, 3):
            raise ValueError(f"label variant must be 1, 2 or 3, "
                             f"got {self.label_variant!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "size":
            # nan fails both tests, and inf % 1 is nan
            if not (self.param >= 1 and self.param % 1 == 0):
                raise ValueError("size mode needs an integer state bound >= 1")
        else:
            if not 0.0 <= self.param <= 1.0:
                raise ValueError("error mode needs a budget in [0, 1]")


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one greedy reduction run.

    ``chosen_set`` holds the sacrificed states in original indices so the
    reduction can be audited; ``raw_label_sum`` keeps the uncapped label sum
    for diagnostics.
    """

    reduced: Nfa
    error_bound: float
    chosen_set: frozenset
    input_size: int
    output_size: int
    label_time: float
    reduce_time: float
    raw_label_sum: float

    def __post_init__(self):
        if self.error_bound < 0.0:
            raise ValueError("error bound must be nonnegative")
        if self.output_size > self.input_size:
            raise ValueError("reduction must not grow the automaton")


def prune_survivors(a, v):
    """Original states surviving the pruning of ``v``: reachable from an
    initial and co-reachable to a final state while avoiding ``v``."""
    _check_states(a, v)
    v = frozenset(v)
    pred = _predecessors(a)
    fwd = _closure(a.initial - v, a.neighbors, v)
    bwd = _closure(a.final - v, pred.__getitem__, v)
    return fwd & bwd


def selfloop_survivors(a, v):
    """Original states surviving the self-looping of ``v``."""
    _check_states(a, v)
    v = frozenset(v)
    pred = _predecessors(a)
    # looped states only reach themselves
    fwd = _closure(a.initial, lambda q: () if q in v else a.neighbors(q))
    bwd = _closure(a.final | v, pred.__getitem__, v)
    return fwd & bwd


def reduce_prune(a, v):
    """Remove the states in ``v`` and trim.  Under-approximates."""
    return restrict(a, prune_survivors(a, v))


def reduce_selfloop(a, v):
    """Self-loop the members of ``v`` that survive, the others being
    dropped either way, and trim.  Over-approximates."""
    survivors = selfloop_survivors(a, v)
    return restrict(self_loop(a, frozenset(v) & survivors), survivors)


def minimize_prune_set(a, v, lab):
    """Greedily shrink ``v`` while pruning keeps the identical surviving
    set; states are dropped in descending label order (ties by descending
    index) so high labels leave the bound first.

    A member q of the kept set is redundant exactly when it is on no
    initial-to-final path that avoids the other kept states: when it is
    not initial and has no predecessor in ``fwd`` (the states reachable
    from an initial state avoiding the kept set), or it is not final and
    has no successor in ``bwd`` (those co-reachable to a final state).
    Dropping q grows at most one of the two, by one search from q, so the
    whole minimization visits each state and edge at most once per
    direction (the vertex insertion case of incremental reachability).
    """
    _check_states(a, v)
    kept = set(v)
    pred = _predecessors(a)
    fwd = _closure(a.initial - kept, a.neighbors, kept, set())
    bwd = _closure(a.final - kept, pred.__getitem__, kept, set())
    for q in sorted(kept, key=lambda q: (lab[q], q), reverse=True):
        reached = q in a.initial or not fwd.isdisjoint(pred[q])
        coreached = q in a.final or not bwd.isdisjoint(a.neighbors(q))
        if reached and coreached:
            continue
        kept.discard(q)
        if reached:
            _closure([q], a.neighbors, kept, fwd)
        elif coreached:
            _closure([q], pred.__getitem__, kept, bwd)
    return frozenset(kept)


def minimize_selfloop_set(a, v):
    """The unique minimal equivalent self-loop set: members of ``v`` that
    survive the reduction (a looped state shadowed by an earlier trap
    contributes nothing)."""
    return frozenset(v) & selfloop_survivors(a, v)


def err_prune(a, v, lab):
    """Upper bound on the distance caused by pruning ``v``: the label sum
    over the greedily minimized set."""
    return sum(lab[q] for q in sorted(minimize_prune_set(a, v, lab)))


def err_selfloop(a, v, lab):
    """Upper bound for self-looping ``v``, capped at 1 (a probability bound
    above 1 is vacuous)."""
    return min(1.0, _err_selfloop_raw(a, v, lab))


def _err_selfloop_raw(a, v, lab):
    return sum(lab[q] for q in sorted(minimize_selfloop_set(a, v)))


def _labels_for(a, p, cfg, det_cap):
    if cfg.kind == "prune":
        return label_prune(a, p, cfg.label_variant, det_cap=det_cap)
    return label_selfloop(a, p, cfg.label_variant, det_cap=det_cap)


def default_order(labels):
    """Ascending label value, ties by ascending state index."""
    return tuple(sorted(range(len(labels)), key=lambda q: (labels[q], q)))


def _survivors(a, kind, v):
    return prune_survivors(a, v) if kind == "prune" else selfloop_survivors(a, v)


def _reduce(a, kind, v):
    return reduce_prune(a, v) if kind == "prune" else reduce_selfloop(a, v)


def _err(a, kind, v, lab):
    return err_prune(a, v, lab) if kind == "prune" else err_selfloop(a, v, lab)


def _report(a, kind, chosen, labels, label_time, t1):
    """Reduce ``a`` by the greedy's ``chosen`` set and report it with its
    error bound; the reduce time runs from ``t1``."""
    reduced = _reduce(a, kind, chosen)
    if kind == "prune":
        raw = err_prune(a, chosen, labels)
        bound = raw
    else:
        raw = _err_selfloop_raw(a, chosen, labels)
        bound = min(1.0, raw)
    reduce_time = time.perf_counter() - t1
    return ReductionReport(reduced, bound, frozenset(chosen), a.num_states,
                           reduced.num_states, label_time, reduce_time, raw)


def greedy_size_driven(a, p, cfg, labels=None, det_cap=DEFAULT_DET_CAP):
    """Grow the sacrificed set in label order until the reduced automaton
    fits the state bound; report the reduced automaton and the error bound.

    An input already within the bound is returned untouched with bound 0.
    With the self-loop kind and several initial states the loop can exhaust
    all states and still end |I| states above the bound; the report then
    carries the closest achievable size.
    """
    if cfg.mode != "size":
        raise ValueError("config mode must be 'size'")
    same_alphabet(p, a)
    n = int(cfg.param)
    if a.num_states <= n:
        return ReductionReport(a, 0.0, frozenset(), a.num_states,
                               a.num_states, 0.0, 0.0, 0.0)

    t0 = time.perf_counter()
    if labels is None:
        labels = _labels_for(a, p, cfg, det_cap)
    label_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    order = default_order(labels)
    k = _first_fitting_prefix(a, cfg.kind, order, n)
    return _report(a, cfg.kind, set(order[:k]), labels, label_time, t1)


def _first_fitting_prefix(a, kind, order, n):
    """The least k >= 1 whose prefix ``order[:k]`` leaves at most ``n``
    survivors, or ``len(order)`` when none does.

    Within a run of the order that no dead state starts, for the self-loop
    kind, or along the whole order for pruning, the survivor count cannot
    rise; so the search tests the end of each run in turn and bisects
    inside the first run whose end fits.
    """
    def fits(k):
        return len(_survivors(a, kind, order[:k])) <= n

    starts = [1]
    if kind == "selfloop":
        live = _live_states(a)
        starts += [k for k in range(2, len(order) + 1)
                   if order[k - 1] not in live]
    ends = [k - 1 for k in starts[1:]] + [len(order)]
    for lo, hi in zip(starts, ends):
        if fits(hi):
            while lo < hi:
                mid = (lo + hi) // 2
                if fits(mid):
                    hi = mid
                else:
                    lo = mid + 1
            return lo
    return len(order)


def greedy_error_driven(a, p, cfg, labels=None, det_cap=DEFAULT_DET_CAP):
    """Visit every state in label order and sacrifice it whenever the error
    bound stays within the budget; the bound need not be monotone, so no
    early exit."""
    if cfg.mode != "error":
        raise ValueError("config mode must be 'error'")
    same_alphabet(p, a)
    budget = float(cfg.param)

    t0 = time.perf_counter()
    if labels is None:
        labels = _labels_for(a, p, cfg, det_cap)
    label_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    chosen = set()
    for q in default_order(labels):
        if _err(a, cfg.kind, chosen | {q}, labels) <= budget:
            chosen.add(q)
    return _report(a, cfg.kind, chosen, labels, label_time, t1)


def distance(a1, a2, p, det_cap=DEFAULT_DET_CAP):
    """Probabilistic distance: the probability of the symmetric difference
    of the two languages, one language-probability solve on the minimal
    DFA that accepts it.  The DFA built first (``nfa._DifferenceTable``,
    the table that ``eval`` fills lazily, here filled whole) pairs the
    subsets of the two automata and has at most ``det_cap`` pairs, over
    the symbol classes of the two automata together
    (``langprob._quotient``), in ``a1``'s alphabet order; about half of
    its pairs are equivalent, and ``nfa._minimal`` merges them."""
    a2 = _aligned(a2, a1)
    p, (a1, a2) = _quotient(_aligned(p, a1), [a1, a2])
    return prob_lang(p, _minimal(a1, *_DifferenceTable(a1, a2,
                                                       det_cap).fill()))
