"""The labellings against the per-state oracle they replace.

The labelling engine reads p1, p2 and sl1 off one determinization and one
PA x DFA product per component; sl2 takes, per state, one ``prob_lang`` of
its first-hit DFA, on which the subsets that hold the state stop, under
the continuation-mass model.  p3 and sl3 read the states that dominate
their finals off one more engine per component, restricted to the states
that reach those finals, and take one ``prob_lang`` of a trimmed
through-state acceptor, on its DFA, for every other state; sl3 is sl2
less p3.  Which states are served is held to a brute-force oracle, one
closure around each state (``util.served_states``).  The oracle in
``util`` runs one language probability per final
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

from nfareduce import (Pa, components, distance, label_prune,
                       label_selfloop, labels, langprob, nfa, restrict,
                       through_state)

from util import (AB, BA, mp_lang, naive_closure, naive_components, nfas,
                  oracle_labels, random_pa, served_states, trapped_nfas,
                  union)
from util import through_state as util_through_state

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
    # state as the trap, and never a component.  sl3 adds p3's route: the
    # engine determinizes each component once, with no traps, and only the
    # states that do not dominate the finals they reach take a
    # language-only determinization of their through-state acceptor.  In
    # each component those are states 1 and 2, one on each of the two runs
    # on "ab".  Each component and each acceptor is over its symbol
    # classes, so the acceptors are matched as ``prob_lang`` quotients
    # them; with "c" moving as "b", every one of them is over two classes.
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
                          for q in (1, 2)]
        assert all(len(b.alphabet) == 2 for b, _ in calls)
        engines = [b for b, traps in calls if traps is None]
        assert engines == ([] if variant == 2 else subs)
        rest = [b for b, traps in calls if traps is not None]
        through = [b for b in rest if b in acceptors]
        first_hits = [b for b in rest if b not in acceptors]
        assert len(first_hits) == 8
        assert through == ([] if variant == 2 else acceptors)
        assert not any(b in subs for b in first_hits)


def count_routes(monkeypatch):
    """The calls the labellings make to ``prob_lang`` and to the engine's
    ``_solve_y``, counted as they happen."""
    counts = {"prob_lang": 0, "_solve_y": 0}
    for name in counts:
        fn = getattr(labels, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            counts[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(labels, name, counted)
    return counts


@pytest.mark.parametrize("kind, variant, per_state, engine_solves", [
    ("prune", 1, 0, 2), ("prune", 2, 0, 2), ("prune", 3, 0, 2),
    ("selfloop", 1, 0, 2), ("selfloop", 2, 1, 0), ("selfloop", 3, 1, 2)])
def test_one_route_per_label(monkeypatch, kind, variant, per_state,
                             engine_solves):
    # p1, p2 and sl1 solve one y per component, the engine's; sl2 is one
    # prob_lang per state, on the first-hit DFA under the
    # continuation-mass model.  p3 is the engine's too, but for the two
    # states per component that do not dominate their final, which take
    # one prob_lang of their through-state acceptor each; sl3 is both
    counts = count_routes(monkeypatch)
    p = random_pa(random.Random(7), max_states=3, alphabet=BA)
    a = two_components()
    fn = label_prune if kind == "prune" else label_selfloop
    fn(a, p, variant)
    through = 4 if variant == 3 else 0
    assert counts == {"prob_lang": per_state * a.num_states + through,
                      "_solve_y": engine_solves}


def test_a_suffix_rule_takes_one_engine_solve(monkeypatch):
    # Sigma* a Sigma^10 over "a b": every accepting run passes through
    # every state, so each one dominates the one final and p3 is one
    # engine solve on the component's 2,048 subsets, where one
    # through-state DFA of 2,048 subsets per state was built and solved
    # before.  Under a one-state PA a word weighs the product of its
    # symbols' weights, whatever their order, so each language weighs what
    # its reverse does: the 40-digit reference of each state is taken on
    # its reversed through-state acceptor, whose DFA has a dozen states
    k = 10
    a = nfa.Nfa(k + 2, AB,
                [(0, s, 0) for s in AB] + [(0, "a", 1)]
                + [(q, s, q + 1) for q in range(1, k + 1) for s in AB],
                [0], [k + 1])
    p = Pa(AB, [1.0], [0.1], [(0, "a", 0, 0.5), (0, "b", 0, 0.4)])
    counts = count_routes(monkeypatch)
    got = label_prune(a, p, 3).values
    assert counts == {"prob_lang": 0, "_solve_y": 1}
    for q in range(a.num_states):
        t = util_through_state(a, q)
        back = nfa.Nfa(t.num_states, AB,
                       [(d, s, src) for src, s, d in t.transitions()],
                       t.final, t.initial)
        assert got[q] == pytest.approx(float(mp_lang(p, back)), rel=1e-12,
                                       abs=0.0)


@SETTINGS
@given(st.one_of(nfas(), trapped_nfas()), pas)
def test_served_states_match_the_dominance_oracle(a, p):
    served = served_states(a)
    flags, _ = labels._served(a, labels._reach_final(a))
    assert {q for q, s in enumerate(flags) if s} == served
    p2 = label_prune(a, p, 2).values
    p3 = label_prune(a, p, 3).values
    assert all(x <= y * (1 + 1e-12) for x, y in zip(p3, p2))
    # where every state of a component reaches a final of a served state,
    # the engine's restriction is the whole component: p2's engine
    pairs = {(s, d) for s, _, d in a.transitions()}
    reached = naive_closure(a.initial, pairs)
    goal = {f for q in served
            for f in naive_closure([q], pairs) & a.final & reached}
    for comp in naive_components(a):
        if comp <= naive_closure(goal, {(d, s) for s, d in pairs}):
            for q in comp & served:
                assert p3[q] == p2[q]


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
