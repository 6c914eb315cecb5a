"""Probability and weight of a regular language under a PA.

The pipeline follows the product + linear-system method: make the automaton
unambiguous (determinize if needed), build the trimmed product with the PA,
sum the per-symbol matrices into E, and evaluate initial . (I - E)^-1 . final.
The inverse exists because the trimmed product has spectral radius below 1,
so the matrix star (the sum of all powers of E) equals (I - E)^-1.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AlphabetMismatchError, EnumerationCapError
from .nfa import (DEFAULT_DET_CAP, _closure, _explore, determinize,
                  is_unambiguous)
from .pa import Ppa

DENSE_SOLVE_LIMIT = 2000
NEUMANN_TOL = 1e-12
NEUMANN_MAX_ITERS = 10 ** 6
ENUM_GUARD = 10 ** 7
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class ProductPpa:
    """Trimmed product of a PA and an NFA.

    ``pair_map[i]`` gives the (pa_state, nfa_state) origin of product
    state ``i``.
    """
    ppa: Ppa
    pair_map: tuple


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

    # backward pass: keep only pairs that can still reach a final pair
    rev = {}
    for i, _label, j in edges:
        rev.setdefault(j, []).append(i)
    alive = _closure([i for i, pair in enumerate(pairs) if is_final(pair)],
                     lambda j: rev.get(j, ()))

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
    trans = [(pos[i], sym, pos[j], w) for i, (sym, w), j in edges
             if i in alive and j in alive]
    return ProductPpa(Ppa(a.alphabet, initial, final, trans), kept_pairs)


def _solve_star(r):
    """Evaluate initial . (I - E)^-1 . final on a trimmed product PPA."""
    n = r.ppa.num_states
    if n == 0:
        return 0.0
    alpha = np.array(r.ppa.initial)
    phi = np.array(r.ppa.final)
    rows, cols, vals = [], [], []
    for src, _sym, dst, w in r.ppa.entries():
        rows.append(src)
        cols.append(dst)
        vals.append(w)
    if n <= DENSE_SOLVE_LIMIT:
        e = np.zeros((n, n))
        np.add.at(e, (rows, cols), vals)
        try:
            x = np.linalg.solve(np.eye(n) - e, phi)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "singular linear system: product is not trim "
                "(internal error)") from exc
    else:
        e = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        x = np.zeros(n)
        for _ in range(NEUMANN_MAX_ITERS):
            nxt = e.dot(x) + phi
            delta = np.max(np.abs(nxt - x))
            x = nxt
            if delta < NEUMANN_TOL:
                break
        else:
            raise RuntimeError(
                f"iterative solve did not converge within "
                f"{NEUMANN_MAX_ITERS} iterations")
    return float(alpha @ x)


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
