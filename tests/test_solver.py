"""The direct solves and the one-solve distance against 40-digit mpmath
references, on random small automata and models.

``prob_lang`` is held to an mpmath solve of the product with the
determinized automaton, on the dense and on the sparse path, and so is the
``weight_lang`` oracle of ``util``.  The solve block by block over strongly
connected components is held to the whole-system solve and to mpmath, with
the block size cut down so that these small systems split.  ``distance``
solves once on the symmetric-difference DFA; it is held to
inclusion-exclusion carried out in mpmath, where the cancellation costs no
float digits.
"""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nfareduce
from nfareduce import (Nfa, Pa, accepts, determinize, determinize_with_subsets,
                       distance, prob_lang)
from nfareduce import langprob
from nfareduce.nfa import _accept_all

from util import (BA, mp_distance, mp_lang, mp_solve_y, nfas,
                  symmetric_difference, trapped_nfas, union,
                  union_symmetric_difference, weight_lang, words_upto)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# automata with some initial and some final state, so most languages are
# not empty
LIVE_NFAS = nfas(min_states=1, max_states=5).filter(
    lambda a: a.initial and a.final)
# and automata with accept-all states, which the symmetric difference absorbs
SOME_TRAPPED = st.one_of(LIVE_NFAS, trapped_nfas(max_states=5))

# below any distance these instances produce, above the reference's own
# 40-digit round-off when two languages are equal
ZERO_FLOOR = 1e-30


@st.composite
def pas(draw):
    """A random PA with 1-2 states over BA in either order.  Each state
    draws integer weights 0-3 per (symbol, target) and 1-3 for its final
    weight, normalised to sum to 1, so every state can stop."""
    n = draw(st.integers(1, 2))
    alphabet = draw(st.sampled_from([BA, BA[::-1]]))
    counts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                  .filter(any))
    initial = [c / sum(counts) for c in counts]
    final = []
    transitions = []
    for q in range(n):
        stop = draw(st.integers(1, 3))
        moves = draw(st.lists(st.integers(0, 3), min_size=2 * n,
                              max_size=2 * n))
        total = stop + sum(moves)
        final.append(stop / total)
        transitions += [(q, alphabet[k % 2], k // 2, c / total)
                        for k, c in enumerate(moves) if c]
    return Pa(alphabet, initial, final, transitions)


@SETTINGS
@given(pas(), LIVE_NFAS)
def test_prob_and_weight_match_mpmath(p, a):
    want_prob = float(mp_lang(p, a))
    for limit in (langprob.DENSE_SOLVE_LIMIT, 0):
        with mock.patch.object(langprob, "DENSE_SOLVE_LIMIT", limit):
            assert prob_lang(p, a) == pytest.approx(want_prob, rel=1e-12,
                                                    abs=0.0)
    assert weight_lang(p, a) == pytest.approx(float(mp_lang(p, a, "unit")),
                                              rel=1e-12, abs=0.0)


@st.composite
def line_pas(draw):
    """A forward-only PA over BA: 2-4 states in a line, starting at the
    first.  Each state draws integer weights 0-3 for its self-loops and for
    its moves to the next state, and 1-3 for its final weight, normalised
    to sum to 1.  No product with it has a cycle through two PA states, so
    its products split into several strongly connected components."""
    n = draw(st.integers(2, 4))
    final = []
    transitions = []
    for q in range(n):
        stop = draw(st.integers(1, 3))
        moves = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
        if q == n - 1:
            moves[2:] = [0, 0]
        total = stop + sum(moves)
        final.append(stop / total)
        transitions += [(q, BA[k % 2], q + k // 2, c / total)
                        for k, c in enumerate(moves) if c]
    return Pa(BA, [1.0] + [0.0] * (n - 1), final, transitions)


@SETTINGS
@given(st.one_of(pas(), line_pas()), LIVE_NFAS, st.integers(1, 3))
def test_block_solve_matches_whole_solve_and_mpmath(p, a, block):
    dfa = a if langprob._deterministic(a) else determinize(a)
    r = langprob.product_pa_nfa(p, dfa)
    whole_y, whole_prob = langprob._solve_y(r), prob_lang(p, a)
    with mock.patch.object(langprob, "_BLOCK", block):
        y, prob = langprob._solve_y(r), prob_lang(p, a)
    assert y.tolist() == pytest.approx(whole_y.tolist(), rel=1e-12, abs=0.0)
    assert y.tolist() == pytest.approx([float(v) for v in mp_solve_y(r)],
                                       rel=1e-12, abs=0.0)
    assert prob == pytest.approx(whole_prob, rel=1e-12, abs=0.0)
    assert prob == pytest.approx(float(mp_lang(p, a)), rel=1e-12, abs=0.0)


def test_merged_blocks_stay_below_the_threaded_lu_size():
    # a chain of cycles, each one strongly connected component: OpenBLAS
    # factors 100 unknowns and up on several threads, so components merge
    # only into blocks below that, and a larger block is one component
    sizes = (60, 75, 90, 80, 65, 70)
    heads = np.cumsum((0,) + sizes).tolist()
    cycle_of = [k for k, size in enumerate(sizes) for _ in range(size)]
    transitions = [(h + i, "a", h + (i + 1) % size)
                   for h, size in zip(heads, sizes) for i in range(size)]
    transitions += [(h, "b", h2) for h, h2 in zip(heads, heads[1:-1])]
    dfa = Nfa(heads[-1], BA, transitions, [0], range(0, heads[-1], 7))
    p = Pa(BA, [1.0], [0.1], [(0, "a", 0, 0.7), (0, "b", 0, 0.2)])
    r = langprob.product_pa_nfa(p, dfa)
    n = len(r.pair_map)
    assert n == sum(sizes) > langprob._BLOCK
    order, ends = langprob._solve_order(n, r.dst, r.src)
    assert sorted(order) == list(range(n))
    for lo, hi in zip(ends, ends[1:]):
        cycles = {cycle_of[r.pair_map[i][1]] for i in order[lo:hi]}
        assert hi - lo < 100 or (len(cycles) == 1
                                 and hi - lo == sizes[cycles.pop()])
    y = langprob._solve_y(r)
    with mock.patch.object(langprob, "_BLOCK", n):
        whole = langprob._solve_y(r)
    assert y.tolist() == pytest.approx(whole.tolist(), rel=1e-12, abs=0.0)


@SETTINGS
@given(pas(), SOME_TRAPPED, SOME_TRAPPED)
def test_distance_matches_mpmath_inclusion_exclusion(p, a1, a2):
    want = mp_distance(p, a1, a2)
    for d in (distance(a1, a2, p), distance(a2, a1, p)):
        assert d == pytest.approx(want, rel=1e-12, abs=ZERO_FLOOR)


@SETTINGS
@given(st.one_of(nfas(), trapped_nfas()), st.one_of(nfas(), trapped_nfas()))
def test_symmetric_difference_dfa(a1, a2):
    sd = symmetric_difference(a1, a2)
    assert len(sd.initial) == 1
    assert all(len(dsts) == 1 for q in range(sd.num_states)
               for _sym, dsts in sd.moves(q))
    for w in words_upto(BA, 5):
        assert accepts(sd, w) == (accepts(a1, w) != accepts(a2, w))


def test_symmetric_difference_of_two_universal_starts():
    # both sides start in an accept-all state: one state, no moves
    universal = Nfa(1, BA, [(0, sym, 0) for sym in BA], [0], [0])
    looped = Nfa(2, BA, [(0, sym, 0) for sym in BA] + [(0, "a", 1)],
                 [0], [0])
    for a1, a2 in ((universal, universal), (universal, looped),
                   (looped, universal)):
        sd = symmetric_difference(a1, a2)
        assert (sd.num_states, sd.num_transitions()) == (1, 0)
        assert sd.initial == {0} and not sd.final


@SETTINGS
@given(nfas(), nfas())
def test_symmetric_difference_without_accept_all_states_is_plain(a1, a2):
    # the construction of the union, subset for subset, numbering and all
    assume(not _accept_all(a1) and not _accept_all(a2))
    dfa, subsets = determinize_with_subsets(union(a1, a2))
    final2 = {q + a1.num_states for q in a2.final}
    plain = Nfa(dfa.num_states, BA, dfa.transitions(), dfa.initial,
                [i for i, s in enumerate(subsets)
                 if bool(s & a1.final) != bool(s & final2)])
    assert symmetric_difference(a1, a2) == plain


@SETTINGS
@given(trapped_nfas(), st.one_of(nfas(), trapped_nfas()), st.booleans())
def test_symmetric_difference_is_the_cut_union_construction(a1, a2, swap):
    # the pairs of subsets, each side trapped on its own, against the
    # construction on the union cut per side: state for state
    if swap:
        a1, a2 = a2, a1
    assert symmetric_difference(a1, a2) == union_symmetric_difference(a1, a2)


@pytest.mark.parametrize("limit", [langprob.DENSE_SOLVE_LIMIT, 0],
                         ids=["dense", "sparse"])
def test_singular_system_is_an_internal_error(monkeypatch, limit):
    # one state with a self-loop of weight 1: I - E is singular
    monkeypatch.setattr(langprob, "DENSE_SOLVE_LIMIT", limit)
    one = np.array([1.0])
    zero = np.array([0])
    r = langprob.ProductPpa(BA, ((0, 0),), one, one, zero, zero, zero, one)
    with pytest.raises(RuntimeError, match="singular linear system"):
        langprob._solve_star(r)
    # the same self-loop on the second state of two, solved one block each:
    # the first block is regular, the second singular
    monkeypatch.setattr(langprob, "_BLOCK", 1)
    r = langprob.ProductPpa(BA, ((0, 0), (0, 1)), np.array([1.0, 0.0]),
                            np.array([0.5, 1.0]), np.array([0, 1]),
                            np.array([0, 0]), np.array([1, 1]),
                            np.array([0.5, 1.0]))
    assert langprob._solve_order(2, r.dst, r.src) == ([0, 1], [0, 1, 2])
    with pytest.raises(RuntimeError, match="singular linear system"):
        langprob._solve_star(r)


def test_import_leaves_scipy_out():
    # scipy costs start-up time and memory; only large solves import it
    code = "import sys, nfareduce; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(nfareduce.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_learn_distance_and_eval_leave_numpy_ma_out(tmp_path):
    # a plain np.unique imports numpy.ma on its first call, at 15 ms and
    # 1.6 MB; the bench's bigmodel runs learn, a block-by-block distance
    # solve and eval on a byte alphabet
    bench = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "bench")
    code = f"""if True:
        import contextlib, io, sys
        sys.path.insert(0, {bench!r})
        import workloads
        from nfareduce import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(cmd.argv) for cmd in
                     workloads.bigmodel(1, {str(tmp_path)!r}).commands]
        print(codes, "numpy.ma" in sys.modules)"""
    src = os.path.dirname(os.path.dirname(nfareduce.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[0, 0, 0] False"


def test_small_components_leave_scipy_out():
    # a chain puts a product over the dense limit, but every strongly
    # connected component of it is one state: no block needs the sparse LU
    code = """if True:
        import sys
        from nfareduce import Nfa, Pa, prob_lang
        from nfareduce.langprob import DENSE_SOLVE_LIMIT
        n, cont = DENSE_SOLVE_LIMIT + 50, 0.999662
        p = Pa(("a",), [1.0], [1.0 - cont], [(0, "a", 0, cont)])
        chain = Nfa(n + 1, ("a",), [(i, "a", i + 1) for i in range(n)],
                    [0], [n])
        print(prob_lang(p, chain) / (cont ** n * (1.0 - cont)),
              "scipy" in sys.modules)"""
    src = os.path.dirname(os.path.dirname(nfareduce.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    ratio, imported = out.split()
    assert float(ratio) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert imported == "False"
