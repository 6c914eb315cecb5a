"""Probability and weight of a regular language under a PA.

The pipeline follows the product + linear-system method: make the automaton
unambiguous (determinize if needed), build the trimmed product with the PA,
sum the per-symbol matrices into E, and evaluate initial . (I - E)^-1 . final.
The inverse exists because the trimmed product has spectral radius below 1,
so the matrix star (the sum of all powers of E) equals (I - E)^-1.

The solve is direct at every size: the row vector y = initial . (I - E)^-1
comes from the transposed system, by dense LU up to ``DENSE_SOLVE_LIMIT``
product states and by sparse LU with diagonal pivots beyond.  I - E is a
nonsingular M-matrix, and with a deterministic automaton the rows of E sum
to at most 1, so the columns of (I - E)^T are diagonally dominant: partial
pivoting keeps the diagonal pivots, and eliminating on the diagonal keeps
every Schur complement an M-matrix.  scipy is imported only when a product
exceeds the dense limit: loading scipy.sparse costs a run more start-up
time and resident memory than its dense solves do.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlphabetMismatchError, EnumerationCapError
from .nfa import (DEFAULT_DET_CAP, _closure, _explore, determinize,
                  is_unambiguous)
from .pa import Ppa

DENSE_SOLVE_LIMIT = 2000
ENUM_GUARD = 10 ** 7
CLAMP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProductPpa:
    """Trimmed product of a PA and an NFA, as arrays.

    ``pair_map[i]`` gives the (pa_state, nfa_state) origin of product
    state ``i``; ``initial`` and ``final`` are the weight vectors.  Entry
    ``k`` is a transition ``src[k] -alphabet[sym[k]]-> dst[k]`` of weight
    ``weight[k]``, in ``Ppa.entries()`` order: by source, alphabet index,
    then target.  ``ppa`` is the same automaton as a ``Ppa``, built on
    first use.
    """
    alphabet: tuple
    pair_map: tuple
    initial: np.ndarray
    final: np.ndarray
    src: np.ndarray
    sym: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    @cached_property
    def ppa(self):
        syms = [self.alphabet[k] for k in self.sym.tolist()]
        return Ppa(self.alphabet, self.initial.tolist(), self.final.tolist(),
                   zip(self.src.tolist(), syms, self.dst.tolist(),
                       self.weight.tolist()))


def _check_alphabets(p, a):
    if set(p.alphabet) != set(a.alphabet):
        raise AlphabetMismatchError(
            f"model/automaton alphabets differ: {p.alphabet!r} vs {a.alphabet!r}")


def product_pa_nfa(p, a, final_weights="model"):
    """Product of PA ``p`` and NFA ``a`` as a trimmed PPA.

    The product pairs PA states with NFA states; a pair is initial when the
    PA weight is positive and the NFA state is initial, final when the NFA
    state is final (carrying the PA final weight, or weight 1 when
    ``final_weights="unit"``).  If ``a`` is unambiguous the product assigns
    every word of L(a) its PA probability (resp. leftover weight) and every
    other word 0.
    """
    if final_weights not in ("model", "unit"):
        raise ValueError(f"unknown final_weights mode {final_weights!r}")
    _check_alphabets(p, a)
    rows = p._trans
    order = a._sym_index

    def step(pair):
        qp, qa = pair
        for sym, dsts in a.moves(qa):
            row = rows.get(sym)
            row = row.get(qp) if row is not None else None
            if row:
                k = order[sym]
                for qa2 in dsts:
                    for qp2, w in row.items():
                        yield (k, w), (qp2, qa2)

    starts = [(qp, qa) for qp in range(p.num_states) if p.initial[qp] > 0.0
              for qa in sorted(a.initial)]
    pairs, edges = _explore(starts, step)

    def final_weight(qp, qa):
        if qa not in a.final:
            return 0.0
        if final_weights == "unit":
            return 1.0
        return p.final[qp] if p.final[qp] > 0.0 else 0.0

    final_all = np.array([final_weight(qp, qa) for qp, qa in pairs])
    # comprehensions, not zip(*edges): zip makes one garbage-collected
    # iterator per edge, and large products then trigger full collections
    src = np.array([i for i, _label, _j in edges], dtype=np.intp)
    dst = np.array([j for _i, _label, j in edges], dtype=np.intp)

    # backward pass: keep only pairs that can still reach a final pair
    by_dst = np.argsort(dst, kind="stable")
    into = src[by_dst].tolist()
    bounds = np.searchsorted(dst[by_dst], np.arange(len(pairs) + 1)).tolist()
    alive = _closure(np.flatnonzero(final_all).tolist(),
                     lambda j: into[bounds[j]:bounds[j + 1]])

    kept = np.array(sorted(alive), dtype=np.intp)
    pos = np.full(len(pairs), -1, dtype=np.intp)
    pos[kept] = np.arange(len(kept))
    kept_pairs = tuple(pairs[i] for i in kept.tolist())
    initial = np.array([p.initial[qp]
                        if qa in a.initial and p.initial[qp] > 0.0 else 0.0
                        for qp, qa in kept_pairs])
    src, dst = pos[src], pos[dst]
    keep = (src >= 0) & (dst >= 0)
    src, dst = src[keep], dst[keep]
    sym = np.array([label[0] for _i, label, _j in edges], dtype=np.intp)[keep]
    weight = np.array([label[1] for _i, label, _j in edges],
                      dtype=float)[keep]
    # the order of Ppa.entries(): by source, alphabet index, target
    perm = np.lexsort((dst, sym, src))
    return ProductPpa(a.alphabet, kept_pairs, initial, final_all[kept],
                      src[perm], sym[perm], dst[perm], weight[perm])


def _solve_star(r):
    """Evaluate initial . (I - E)^-1 . final on a trimmed product PPA, as
    y . final with y solving y (I - E) = initial."""
    n = len(r.pair_map)
    if n == 0:
        return 0.0
    # (I - E)^T, with the entries of E summed at (dst, src)
    try:
        if n <= DENSE_SOLVE_LIMIT:
            m = np.zeros((n, n))
            np.add.at(m, (r.dst, r.src), r.weight)
            np.negative(m, out=m)
            m.flat[::n + 1] += 1.0
            y = np.linalg.solve(m, r.initial)
        else:
            import scipy.sparse as sp
            from scipy.sparse.linalg import splu
            m = (sp.identity(n, format="csc")
                 - sp.csc_matrix((r.weight, (r.dst, r.src)), shape=(n, n)))
            y = splu(m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True}).solve(r.initial)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # splu reports an exactly singular factor as a RuntimeError
        raise RuntimeError("singular linear system: product is not trim "
                           "(internal error)") from exc
    return float(y @ r.final)


def _lang_value(p, a, final_weights, det_cap):
    if not is_unambiguous(a):
        a = determinize(a, det_cap)
    return _solve_star(product_pa_nfa(p, a, final_weights))


def prob_lang(p, a, det_cap=DEFAULT_DET_CAP):
    """Probability of L(a) under PA ``p``, in [0, 1]."""
    val = _lang_value(p, a, "model", det_cap)
    if val < -CLAMP_TOL or val > 1.0 + CLAMP_TOL:
        raise RuntimeError(f"language probability {val!r} outside [0, 1] "
                           "beyond tolerance (internal error)")
    return min(max(val, 0.0), 1.0)


def weight_lang(p, a, det_cap=DEFAULT_DET_CAP):
    """Total weight of L(a) under ``p``: the same computation as prob_lang
    with the PA final weights replaced by all-ones.  May exceed 1."""
    val = _lang_value(p, a, "unit", det_cap)
    if val < -CLAMP_TOL:
        raise RuntimeError(f"language weight {val!r} negative beyond "
                           "tolerance (internal error)")
    return max(val, 0.0)


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
    _check_alphabets(p, a)
    k = len(a.alphabet)
    count = 0
    for i in range(max_len + 1):
        count += k ** i
        if count > ENUM_GUARD:
            raise EnumerationCapError(
                f"enumerating words up to length {max_len} over "
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
