"""The two reduction operators, their certified error bounds, and the
greedy size-driven and error-driven algorithms.

Pruning removes states and trims, so the reduced language is a subset of
the original; self-looping traps states with universal self-loops (made
accepting) and trims, so the reduced language is a superset.  Both come
with an error function whose value provably bounds the probabilistic
distance between the original and the reduced automaton.  Inputs are
assumed to be trim.
"""

import time
from dataclasses import dataclass

from .labels import label_prune, label_selfloop
from .langprob import prob_lang
from .nfa import (DEFAULT_DET_CAP, Nfa, _check_states, _closure,
                  _predecessors, _symmetric_difference, restrict, self_loop)

KINDS = ("prune", "selfloop")
MODES = ("size", "error")


@dataclass(frozen=True)
class ReductionConfig:
    """What to reduce and how far.

    ``param`` is the state bound n in size mode (>= 1) and the error budget
    in error mode (within [0, 1]).  ``order`` optionally fixes the state
    processing sequence; by default states go by ascending label value with
    ties broken by ascending index.
    """

    kind: str
    label_variant: int
    mode: str
    param: float
    order: tuple = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.label_variant not in (1, 2, 3):
            raise ValueError(f"label variant must be 1, 2 or 3, "
                             f"got {self.label_variant!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "size":
            if self.param < 1 or self.param != int(self.param):
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
    fwd = _closure(a.initial - v, lambda q: a.neighbors(q) - v)
    bwd = _closure(a.final - v, lambda q: pred[q] - v)
    return fwd & bwd


def selfloop_survivors(a, v):
    """Original states surviving the self-looping of ``v``."""
    _check_states(a, v)
    v = frozenset(v)
    pred = _predecessors(a)
    # looped states only reach themselves
    fwd = _closure(a.initial, lambda q: () if q in v else a.neighbors(q))
    bwd = _closure(a.final | v, lambda q: pred[q] - v)
    return fwd & bwd


def reduce_prune(a, v):
    """Remove the states in ``v`` and trim.  Under-approximates."""
    return restrict(a, prune_survivors(a, v))


def reduce_selfloop(a, v):
    """Self-loop the states in ``v`` and trim.  Over-approximates."""
    return restrict(self_loop(a, v), selfloop_survivors(a, v))


def minimize_prune_set(a, v, lab):
    """Greedily shrink ``v`` while pruning keeps the identical surviving
    set; states are dropped in descending label order (ties by descending
    index) so high labels leave the bound first."""
    target = prune_survivors(a, v)
    kept = set(v)
    for q in sorted(v, key=lambda q: (lab[q], q), reverse=True):
        candidate = kept - {q}
        if prune_survivors(a, candidate) == target:
            kept = candidate
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


def _resolve_order(cfg, labels):
    if cfg.order is not None:
        order = tuple(cfg.order)
        if sorted(order) != list(range(len(labels))):
            raise ValueError("order must be a permutation of all states")
        return order
    return default_order(labels)


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
    n = int(cfg.param)
    if a.num_states <= n:
        return ReductionReport(a, 0.0, frozenset(), a.num_states,
                               a.num_states, 0.0, 0.0, 0.0)

    t0 = time.perf_counter()
    if labels is None:
        labels = _labels_for(a, p, cfg, det_cap)
    label_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    order = _resolve_order(cfg, labels)
    chosen = set()
    for q in order:
        chosen.add(q)
        if len(_survivors(a, cfg.kind, chosen)) <= n:
            break
    return _report(a, cfg.kind, chosen, labels, label_time, t1)


def greedy_error_driven(a, p, cfg, labels=None, det_cap=DEFAULT_DET_CAP):
    """Visit every state in label order and sacrifice it whenever the error
    bound stays within the budget; the bound need not be monotone, so no
    early exit."""
    if cfg.mode != "error":
        raise ValueError("config mode must be 'error'")
    budget = float(cfg.param)

    t0 = time.perf_counter()
    if labels is None:
        labels = _labels_for(a, p, cfg, det_cap)
    label_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    order = _resolve_order(cfg, labels)
    chosen = set()
    for q in order:
        if _err(a, cfg.kind, chosen | {q}, labels) <= budget:
            chosen.add(q)
    return _report(a, cfg.kind, chosen, labels, label_time, t1)


def distance(a1, a2, p, det_cap=DEFAULT_DET_CAP):
    """Probabilistic distance: the probability of the symmetric difference
    of the two languages, one language-probability solve on the DFA that
    accepts it.  The union of the two automata is determinized under
    ``det_cap``."""
    return prob_lang(p, _symmetric_difference(a1, a2, det_cap))
