"""Probability of a regular language under a PA.

The pipeline follows the product + linear-system method: determinize the
automaton unless it is deterministic already, build its product with the
PA, sum the per-symbol matrices into E, and evaluate
initial . (I - E)^-1 . final.  With a deterministic automaton, E is
dominated entry by entry by the PA's own transition matrix, whose spectral
radius is below 1, so the product needs no trimming: the matrix star (the
sum of all powers of E) equals (I - E)^-1.

The solve is direct at every size: the row vector y = initial . (I - E)^-1
comes from the transposed system, by dense LU up to ``DENSE_SOLVE_LIMIT``
product states and by sparse LU with diagonal pivots beyond.  I - E is a
nonsingular M-matrix, and with a deterministic automaton the rows of E sum
to at most 1, so the columns of (I - E)^T are diagonally dominant: partial
pivoting keeps the diagonal pivots, and eliminating on the diagonal keeps
every Schur complement an M-matrix.  scipy is imported only when a product
exceeds the dense limit: loading scipy.sparse costs a run more start-up
time and resident memory than its dense solves do.

The labellings (``labels``) take y itself (``_solve_y``), on the product
with a component's DFA or with a state's first-hit DFA.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nfa import DEFAULT_DET_CAP, _explore, determinize, same_alphabet
from .pa import Ppa

DENSE_SOLVE_LIMIT = 2000
CLAMP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProductPpa:
    """Product of a PA and an automaton, as arrays, over the pairs
    reachable from the initial pairs; ``product_pa_nfa`` builds it.

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


def product_pa_nfa(p, a):
    """Product of PA ``p`` and automaton ``a`` over the pairs reachable
    from the initial pairs, untrimmed.

    The product pairs PA states with automaton states; a pair is initial
    when the PA weight is positive and the automaton state is initial, and
    final, with the PA final weight, when the automaton state is final.  If
    ``a`` is deterministic the product assigns every word of L(a) its PA
    probability and every other word 0, and I - E is nonsingular.
    """
    same_alphabet(p, a)
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
    initial = np.array([p.initial[qp]
                        if qa in a.initial and p.initial[qp] > 0.0 else 0.0
                        for qp, qa in pairs])
    final = np.array([p.final[qp] if qa in a.final and p.final[qp] > 0.0
                      else 0.0 for qp, qa in pairs])
    # comprehensions, not zip(*edges): zip makes one garbage-collected
    # iterator per edge, and large products then trigger full collections
    src = np.array([i for i, _label, _j in edges], dtype=np.intp)
    dst = np.array([j for _i, _label, j in edges], dtype=np.intp)
    sym = np.array([label[0] for _i, label, _j in edges], dtype=np.intp)
    weight = np.array([label[1] for _i, label, _j in edges], dtype=float)
    # the order of Ppa.entries(): by source, alphabet index, target
    perm = np.lexsort((dst, sym, src))
    return ProductPpa(a.alphabet, tuple(pairs), initial, final, src[perm],
                      sym[perm], dst[perm], weight[perm])


def _solve(n, rows, cols, weight, rhs):
    """x solving (I - M) x = rhs, where M is n x n with the ``weight``
    entries summed at (``rows``, ``cols``): dense LU up to
    ``DENSE_SOLVE_LIMIT`` unknowns, sparse LU with diagonal pivots beyond.

    Every M here is a PA x DFA product's E, transposed for y, or the PA's
    own transition matrix: nonnegative, with rows (or columns) summing to
    at most 1 and spectral radius below 1, as the module's pivoting
    argument needs.
    """
    try:
        if n <= DENSE_SOLVE_LIMIT:
            m = np.zeros((n, n))
            np.add.at(m, (rows, cols), weight)
            np.negative(m, out=m)
            m.flat[::n + 1] += 1.0
            return np.linalg.solve(m, rhs)
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu
        m = (sp.identity(n, format="csc")
             - sp.csc_matrix((weight, (rows, cols)), shape=(n, n)))
        return splu(m, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True}).solve(rhs)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # splu reports an exactly singular factor as a RuntimeError
        raise RuntimeError("singular linear system: spectral radius not "
                           "below 1 (internal error)") from exc


def _solve_y(r):
    """The row vector y = initial . (I - E)^-1 of a PA x DFA product, from
    the transposed system (I - E)^T y = initial."""
    n = len(r.pair_map)
    if n == 0:
        return np.zeros(0)
    # (I - E)^T, with the entries of E summed at (dst, src)
    return _solve(n, r.dst, r.src, r.weight, r.initial)


def _solve_star(r):
    """Evaluate initial . (I - E)^-1 . final on a product PPA, as y . final."""
    if not r.pair_map:
        return 0.0
    return float(_solve_y(r) @ r.final)


def _continuation_mass(p):
    """z = (I - T)^-1 . final: per PA state, the total probability of the
    words read from it.  It is 1 for a PA that is exactly stochastic, and
    within the PA's stochasticity tolerance of 1 otherwise."""
    src, dst, weight = [], [], []
    for qp, _sym, qp2, w in p.entries():
        src.append(qp)
        dst.append(qp2)
        weight.append(w)
    return _solve(p.num_states, np.array(src, dtype=np.intp),
                  np.array(dst, dtype=np.intp), np.array(weight, dtype=float),
                  np.array(p.final, dtype=float))


def _as_prob(val):
    """A computed language probability, clamped to [0, 1]."""
    if val < -CLAMP_TOL or val > 1.0 + CLAMP_TOL:
        raise RuntimeError(f"language probability {val!r} outside [0, 1] "
                           "beyond tolerance (internal error)")
    return min(max(val, 0.0), 1.0)


def _deterministic(a):
    """True when ``a`` has at most one initial state and at most one
    successor per state and symbol: one pass over the store."""
    return len(a.initial) <= 1 and all(len(dsts) == 1
                                       for moves in a._delta.values()
                                       for dsts in moves.values())


def prob_lang(p, a, det_cap=DEFAULT_DET_CAP):
    """Probability of L(a) under PA ``p``, in [0, 1].  An automaton that is
    not deterministic is determinized first, under ``det_cap``."""
    if not _deterministic(a):
        a = determinize(a, det_cap)
    return _as_prob(_solve_star(product_pa_nfa(p, a)))
