"""Probability of a regular language under a PA.

The pipeline follows the product + linear-system method: quotient the
alphabet into symbol classes, determinize the automaton unless it is
deterministic already, build its product with the PA, sum the per-symbol
matrices into E, and evaluate initial . (I - E)^-1 . final.  With a
deterministic automaton, E is dominated entry by entry by the PA's own
transition matrix, whose spectral radius is below 1, so the product needs
no trimming: the matrix star (the sum of all powers of E) equals
(I - E)^-1.

The symbol classes (``_quotient``, whose partition is
``nfa._symbol_classes``) are the sets of symbols on which every
state of the automaton has the same successors: a Sigma*-prefixed rule's
per-state acceptor tells apart about ten classes of the 256 bytes.  The
automaton keeps one move per class and the PA sums its weights per class,
so the subset construction, the product and its edge arrays scale with the
classes rather than the alphabet, at the cost of one pass over the moves.
A symbol without moves is in none of them, so it stays a class of its
own, and an automaton that only lacks moves is used as it is.
``prob_lang`` quotients its automaton; ``labels`` and ``distance`` quotient
a component or both operands first, so each later quotient refines a class
alphabet.

The operands are aligned to the automaton's alphabet order once, on entry
(``_aligned``), before any quotient: a PA over a permutation of that
alphabet has its edges re-sorted, with its weights unchanged, so every sum
over them, per class or per (source, target), runs in one order and no
result depends on the order of a file's alphabet line.

The product (``product_pa_nfa``) is one ``_explore`` over pairs numbered
by one integer each, whose edges are labelled by the PA edge they take, so
it allocates no tuple per edge; it reads the one store of a ``Ppa``, whose
edge arrays ``_continuation_mass`` solves on directly.

The solve is direct at every size: the row vector y = initial . (I - E)^-1
comes from the transposed system, solved block by block over its strongly
connected components (``_solve``).  A model learned from packet structure
moves forward through header lines, so its products split into many small
ones.  Consecutive components merge into one block while it stays under
100 unknowns (``_MERGE``), the size from which OpenBLAS factors on several
threads.  Each block takes dense LU up to ``DENSE_SOLVE_LIMIT`` unknowns and
sparse LU with diagonal pivots beyond.  I - E is a nonsingular M-matrix,
and with a deterministic automaton the rows of E sum to at most 1, so the
columns of (I - E)^T are diagonally dominant: partial pivoting keeps the
diagonal pivots, and eliminating on the diagonal keeps every Schur
complement an M-matrix, as is each diagonal block.  scipy is imported only
for a block over the dense limit: loading scipy.sparse costs a run more
start-up time and resident memory than its dense solves do.

The labelling engine (``labels``) takes y itself (``_solve_y``), on the
product with a component's DFA.  The other labels are ``prob_lang`` calls;
sl2's is under the continuation-mass model, the class PA with its final
weights replaced by ``_continuation_mass``, on a state's first-hit DFA.

``prob_lang`` does not minimize: a component's DFA or a per-state acceptor
shrinks by a few percent at most (``distance`` does, in ``nfa``).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nfa import (DEFAULT_DET_CAP, Nfa, _explore, _symbol_classes,
                  determinize, same_alphabet)
from .pa import Ppa

DENSE_SOLVE_LIMIT = 2000
_BLOCK = 200
# the largest block merged from several components: OpenBLAS factors 100
# unknowns and up on several threads, which stalls a cold solve for over
# 100 ms where one thread takes under 1 ms
_MERGE = 99
CLAMP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProductPpa:
    """Product of a PA and an automaton, as arrays, over the pairs
    reachable from the initial pairs; ``product_pa_nfa`` builds it.

    ``pair_map[i]`` gives the (pa_state, nfa_state) origin of product
    state ``i``; ``initial`` and ``final`` are the weight vectors.  Entry
    ``k`` is a transition ``src[k] -alphabet[sym[k]]-> dst[k]`` of weight
    ``weight[k]``, in the order the product met them: by source, then as
    ``product_pa_nfa`` walks its moves.  ``ppa`` is the same automaton as
    a ``Ppa``, built from these arrays on first use.
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

    ``_explore`` numbers the pair (qp, qa) as the integer qp * n + qa, with
    n the states of ``a``, and labels each edge with its PA edge number,
    so an edge allocates no tuple.  The PA is first aligned to ``a``'s
    alphabet order (``_aligned``); a pair then walks its automaton state's
    moves and looks each symbol up in its PA state's row.
    """
    p = _aligned(p, a)
    rows, delta = p._rows, a._delta
    n = a.num_states

    def step(key):
        qp, qa = divmod(key, n)
        row = rows.get(qp)
        moves = delta.get(qa)
        if not row or not moves:
            return
        for sym, dsts in moves.items():
            out = row.get(sym)
            if out:
                for qa2 in dsts:
                    for e, qp2 in out:
                        yield e, qp2 * n + qa2

    starts = [qp * n + qa for qp in range(p.num_states)
              if p.initial[qp] > 0.0 for qa in sorted(a.initial)]
    keys, (src, labels, dst) = _explore(starts, step)
    pairs = [divmod(key, n) for key in keys]
    initial = np.array([p.initial[qp]
                        if qa in a.initial and p.initial[qp] > 0.0 else 0.0
                        for qp, qa in pairs])
    final = np.array([p.final[qp] if qa in a.final and p.final[qp] > 0.0
                      else 0.0 for qp, qa in pairs])
    labels = np.array(labels, dtype=np.intp)
    return ProductPpa(a.alphabet, tuple(pairs), initial, final,
                      np.array(src, dtype=np.intp), p.sym[labels],
                      np.array(dst, dtype=np.intp), p.weight[labels])


def _solve_order(n, rows, cols):
    """The unknowns of (I - M) x = rhs in a solve order, and the bounds of
    its blocks: ``order[ends[b]:ends[b + 1]]`` is block b.  An iterative
    Tarjan over the graph i -> j of M's entries emits each strongly
    connected component after every one it reaches; consecutive components
    are merged into blocks of at most ``_MERGE`` unknowns, and of at most
    ``_BLOCK`` when that is smaller."""
    # sorted and deduplicated; a plain np.unique would import numpy.ma
    key = np.sort(rows * n + cols)
    key = key[np.diff(key, prepend=-1) != 0]
    start = np.searchsorted(key, np.arange(n + 1) * n).tolist()
    dst = (key % n).tolist()
    # an emitted state gets index n, above every low link, so none takes it
    index, low = [-1] * n, [0] * n
    stack, order, ends = [], [], [0]
    for root in range(n):
        w = root if index[root] < 0 else None
        work = []
        while w is not None or work:
            if w is not None:
                # every state seen is on the stack or in the order already
                index[w] = low[w] = len(order) + len(stack)
                work.append((w, len(stack), iter(dst[start[w]:start[w + 1]])))
                stack.append(w)
            v, at, succ = work[-1]
            w = None
            for u in succ:
                if index[u] < 0:
                    w = u
                    break
                if index[u] < low[v]:
                    low[v] = index[u]
            if w is not None:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = stack[at:]
                del stack[at:]
                for u in comp:
                    index[u] = n
                # a new block when the open one holds some and would overflow
                size = len(order) + len(comp) - ends[-1]
                if len(comp) < size > min(_BLOCK, _MERGE):
                    ends.append(len(order))
                order += comp
    ends.append(n)
    return order, ends


def _solve(n, rows, cols, weight, rhs):
    """x solving (I - M) x = rhs, where M is n x n with the ``weight``
    entries summed at (``rows``, ``cols``): whole up to ``_BLOCK``
    unknowns, block by block in ``_solve_order``'s order beyond, each block
    by ``_lu`` with the x of the blocks before it in its right-hand side.

    Every M here is a PA x DFA product's E, transposed for y, or the PA's
    own transition matrix: nonnegative, with rows (or columns) summing to
    at most 1 and spectral radius below 1, as the module's pivoting
    argument needs.
    """
    try:
        if n <= _BLOCK:
            return _lu(n, rows, cols, weight, rhs)
        order, ends = _solve_order(n, rows, cols)
        rank = np.argsort(order)
        # the entries in the solve order, grouped by block of their row
        rows, cols = rank[rows], rank[cols]
        by_row = np.argsort(rows, kind="stable")
        rows, cols, weight = rows[by_row], cols[by_row], weight[by_row]
        cuts = np.searchsorted(rows, ends).tolist()
        x = rhs[order]
        for lo, hi, e0, e1 in zip(ends, ends[1:], cuts, cuts[1:]):
            r, c, w = rows[e0:e1] - lo, cols[e0:e1], weight[e0:e1]
            inner, out = c >= lo, c < lo
            x[lo:hi] += np.bincount(r[out], w[out] * x[c[out]],
                                    minlength=hi - lo)
            x[lo:hi] = _lu(hi - lo, r[inner], c[inner] - lo, w[inner],
                           x[lo:hi])
        return x[rank]
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # splu reports an exactly singular factor as a RuntimeError
        raise RuntimeError("singular linear system: spectral radius not "
                           "below 1 (internal error)") from exc


def _lu(n, rows, cols, weight, rhs):
    """``_solve``'s system solved whole, by dense or sparse LU."""
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
    return float(_solve_y(r) @ r.final)


def _continuation_mass(p):
    """z = (I - T)^-1 . final: per PA state, the total probability of the
    words read from it.  It is 1 for a PA that is exactly stochastic, and
    within the PA's stochasticity tolerance of 1 otherwise."""
    return _solve(p.num_states, p.src, p.dst, p.weight,
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


def _aligned(x, like):
    """``x``, a PA or an automaton, over the alphabet order of ``like``,
    or ``x`` itself when the two orders agree; AlphabetMismatchError when
    their symbols differ, naming those of ``like`` first.  The PA is
    ``_summed`` with each symbol a class of its own, so every weight keeps
    its bits; the automaton's moves are re-sorted.  Every sum over a PA's
    edges then runs in one order, so no result depends on the order a file
    lists its alphabet in."""
    if x.alphabet == like.alphabet:
        return x
    same_alphabet(like, x)
    index = like._sym_index
    if isinstance(x, Ppa):
        return x._summed(like.alphabet,
                         np.array([index[sym] for sym in x.alphabet], np.intp))
    delta = {q: dict(sorted(moves.items(), key=lambda move: index[move[0]]))
             for q, moves in x._delta.items()}
    return Nfa._built(x.num_states, like, delta, x.initial, x.final, x.name)


def _quotient(p, automata):
    """``p`` and ``automata``, which share one alphabet order
    (``_aligned``), over their symbol classes (``nfa._symbol_classes``),
    as (class PA, class automata).  They are returned themselves when no
    two symbols share a class.

    The class automata keep one move per class, and the class PA sums the
    PA's weights per class.  Both are exact for the probability of any
    language the automata define: within a class every symbol moves alike,
    so a PA x DFA product's entry E[(p, s), (p', s')] is the shared move
    times the sum over the class of T_a[p, p'].  The PA's own successors
    need not refine the classes.
    """
    class_of, quotients = _symbol_classes(automata)
    if quotients is automata:
        return p, automata
    return (p._summed(quotients[0].alphabet, np.array(class_of, np.intp)),
            quotients)


def prob_lang(p, a, det_cap=DEFAULT_DET_CAP):
    """Probability of L(a) under PA ``p``, in [0, 1], over the symbol
    classes of ``a`` (``_quotient``).  An automaton that is not
    deterministic is determinized first, under ``det_cap``."""
    p, (a,) = _quotient(_aligned(p, a), [a])
    if not _deterministic(a):
        a = determinize(a, det_cap)
    return _as_prob(_solve_star(product_pa_nfa(p, a)))
