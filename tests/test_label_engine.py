"""The labellings against the per-state oracle they replace.

The labelling engine reads p1, p2 and sl1 off one determinization and one
PA x DFA product per component; sl2 takes, per state, one ``prob_lang`` of
its first-hit DFA, on which the subsets that hold the state stop, under
the continuation-mass model.  p3 and sl3 take one ``prob_lang`` of a
trimmed through-state acceptor per state, on its DFA; sl3 is sl2 less
that.  The oracle in ``util`` runs one language probability per final
state, final set or state; for p3 and sl3 it takes the untrimmed acceptor,
determinized only when it is ambiguous, on a trimmed product.  The two
sides solve different products, so they agree to round-off: 1e-12
relative.  sl3 is a difference, sl2 less the words through q, so its
round-off is that of the sl2 it is taken from.  Every product the
labellings and ``distance`` build is on a DFA.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfareduce import (components, distance, label_prune, label_selfloop,
                       labels, langprob, nfa, restrict, through_state)

from util import BA, nfas, oracle_labels, random_pa, trapped_nfas, union

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# a random valid PA over BA with 1-3 states, drawn by seed
pas = st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_pa(random.Random(seed), max_states=3, alphabet=BA))


@SETTINGS
@given(nfas(), pas)
def test_prune_labels_match_oracle(a, p):
    for variant in (1, 2, 3):
        got = label_prune(a, p, variant).values
        want = oracle_labels(a, p, "prune", variant)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@SETTINGS
@given(st.one_of(nfas(), trapped_nfas()), pas)
def test_selfloop_labels_match_oracle(a, p):
    for variant in (1, 2):
        got = label_selfloop(a, p, variant).values
        want = oracle_labels(a, p, "selfloop", variant)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    sl2 = want
    got = label_selfloop(a, p, 3).values
    want = oracle_labels(a, p, "selfloop", 3)
    for q, (x, y) in enumerate(zip(got, want)):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-12 * sl2[q])


def record_determinizations(monkeypatch):
    """The automata handed to ``determinize_with_subsets`` at every
    binding (the engine's, and the one behind ``nfa.determinize`` and
    ``nfa.first_hit``), each with the ``traps`` it came with: None for the
    engine, which passes none."""
    calls = []
    determinize_with_subsets = nfa.determinize_with_subsets

    def recorded(a, cap=nfa.DEFAULT_DET_CAP, **kw):
        calls.append((a, kw.get("traps")))
        return determinize_with_subsets(a, cap, **kw)

    for module in (nfa, labels):
        monkeypatch.setattr(module, "determinize_with_subsets", recorded)
    return calls


def two_components():
    """Two 4-state components over BA, each ambiguous (two runs on ab)."""
    return union(*(nfa.trim(nfa.Nfa(4, BA, [(0, "a", 1), (0, "a", 2),
                                            (1, "b", 3), (2, "b", 3),
                                            (3, s, 0)], [0], [3]))
                   for s in BA))


@pytest.mark.parametrize("kind, variant", [("prune", 1), ("prune", 2),
                                           ("selfloop", 1)])
def test_one_determinization_per_component(monkeypatch, kind, variant):
    calls = record_determinizations(monkeypatch)
    p = random_pa(random.Random(7), max_states=3, alphabet=BA)
    a = two_components()
    subs = [restrict(a, comp) for comp in components(a)]
    assert len(subs) == 2
    fn = label_prune if kind == "prune" else label_selfloop
    fn(a, p, variant)
    assert calls == [(sub, None) for sub in subs]


def with_c_as_b(a):
    """``a`` over ("b", "a", "c"), with "c" moving as "b" does, so the two
    share a symbol class."""
    return nfa.Nfa(a.num_states, BA + ("c",),
                   [(q, x, d) for q, sym, d in a.transitions()
                    for x in ((sym, "c") if sym == "b" else (sym,))],
                   a.initial, a.final)


@pytest.mark.parametrize("variant", [2, 3])
def test_selfloop_runs_no_engine(monkeypatch, variant):
    # sl2 determinizes each state's back-language acceptor, with the
    # state as the trap, and never a component; sl3 adds p3's
    # language-only determinizations, one per through-state acceptor.  The
    # acceptor of an initial state accepts its component's whole language,
    # so that one can be the component itself, but every call carries
    # traps, which the engine never passes.  Each component and each
    # acceptor is over its symbol classes, so the acceptors are matched as
    # ``prob_lang`` quotients them; with "c" moving as "b", every one of
    # them is over two classes.
    calls = record_determinizations(monkeypatch)
    for a in (two_components(), with_c_as_b(two_components())):
        calls.clear()
        p = random_pa(random.Random(7), max_states=3, alphabet=a.alphabet)
        label_selfloop(a, p, variant)
        subs, acceptors = [], []
        for comp in components(a):
            pc, (sub,) = langprob._quotient(p, [restrict(a, comp)])
            subs.append(sub)
            acceptors += [langprob._quotient(pc, [through_state(sub, q)])[1][0]
                          for q in range(sub.num_states)]
        assert all(traps is not None for _, traps in calls)
        assert all(len(b.alphabet) == 2 for b, _ in calls)
        through = [b for b, _ in calls if b in acceptors]
        first_hits = [b for b, _ in calls if b not in acceptors]
        assert (len(first_hits), len(through)) == (8, 0 if variant == 2
                                                   else 8)
        assert not any(b in subs for b in first_hits)


@pytest.mark.parametrize("kind, variant, per_state, engine_solves", [
    ("prune", 1, 0, 2), ("prune", 2, 0, 2), ("prune", 3, 1, 0),
    ("selfloop", 1, 0, 2), ("selfloop", 2, 1, 0), ("selfloop", 3, 2, 0)])
def test_one_route_per_label(monkeypatch, kind, variant, per_state,
                             engine_solves):
    # p1, p2 and sl1 solve one y per component, the engine's; every other
    # label is prob_lang calls: one per state for p3 and sl2 (on the
    # first-hit DFA, under the continuation-mass model), two for sl3
    counts = {"prob_lang": 0, "_solve_y": 0}
    for name in counts:
        fn = getattr(labels, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            counts[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(labels, name, counted)
    p = random_pa(random.Random(7), max_states=3, alphabet=BA)
    a = two_components()
    fn = label_prune if kind == "prune" else label_selfloop
    fn(a, p, variant)
    assert counts == {"prob_lang": per_state * a.num_states,
                      "_solve_y": engine_solves}


def deterministic(a):
    return len(a.initial) <= 1 and all(len(dsts) == 1
                                       for q in range(a.num_states)
                                       for _sym, dsts in a.moves(q))


@SETTINGS
@given(st.one_of(nfas(), trapped_nfas()), st.one_of(nfas(), trapped_nfas()),
       pas)
def test_every_product_is_on_a_dfa(a1, a2, p):
    operands = []
    product_pa_nfa = langprob.product_pa_nfa

    def checked(p, a):
        operands.append(a)
        return product_pa_nfa(p, a)

    with mock.patch.object(langprob, "product_pa_nfa", checked), \
            mock.patch.object(labels, "product_pa_nfa", checked):
        for variant in (1, 2, 3):
            label_prune(a1, p, variant)
            label_selfloop(a1, p, variant)
        distance(a1, a2, p)
    assert operands
    assert all(deterministic(a) for a in operands)
