"""The greedy reductions on a byte-alphabet rule set at the paper's shape.

A seeded Sigma*-prefixed set of 10 rules over the 256 bytes (102 states,
one component) from the benchmark's generators, and a copy with one dead
state added.  Both kinds run in size mode and in error mode at three
budgets, with p2 and sl2 labels given; every report must equal the linear
scan's (``util.oracle_greedy``): the chosen set, the error bound bit for
bit, and the reduced automaton.
"""

import pytest

from nfareduce import (Nfa, ReductionConfig, default_order,
                       greedy_error_driven, greedy_size_driven, label_prune,
                       label_selfloop, selfloop_survivors)

from util import byte_rule_set, oracle_greedy, same_automaton

BUDGETS = (1e-16, 1e-12, 1e-6)
# half the states, and a bound whose first fitting self-loop prefix on
# the copy with a dead state comes just before the dead state is looped
SIZES = (51, 48)


def with_dead_state(a):
    """``a`` plus one state that cannot reach a final state, entered from
    a rule state three steps from the initial state."""
    q = min(a.initial)
    for _ in range(3):
        q = max(d for _, dsts in a.moves(q) for d in dsts)
    sym = next(iter(a.moves(q)))[0]
    n = a.num_states
    return Nfa(n + 1, a.alphabet, list(a.transitions()) + [(q, sym, n)],
               a.initial, a.final)


@pytest.fixture(scope="module")
def instances():
    a, p = byte_rule_set(10)
    assert a.num_states == 102 and len(a.alphabet) == 256
    out = []
    for x in (a, with_dead_state(a)):
        out.append((x, {"prune": label_prune(x, p, 2),
                        "selfloop": label_selfloop(x, p, 2)}))
    return p, out


def test_the_dead_state_revives_survivors_when_looped(instances):
    _, [_, (dead, labels)] = instances
    order = default_order(labels["selfloop"])
    k = order.index(dead.num_states - 1) + 1
    assert (len(selfloop_survivors(dead, order[:k]))
            > len(selfloop_survivors(dead, order[:k - 1])))


@pytest.mark.parametrize("kind", ["prune", "selfloop"])
@pytest.mark.parametrize("mode, param",
                         [("size", n) for n in SIZES]
                         + [("error", b) for b in BUDGETS])
def test_greedy_matches_the_linear_scan(instances, kind, mode, param):
    p, cases = instances
    run = greedy_size_driven if mode == "size" else greedy_error_driven
    for a, labels in cases:
        lab = labels[kind]
        report = run(a, p, ReductionConfig(kind, 2, mode, param),
                     labels=lab)
        chosen, bound, reduced = oracle_greedy(a, kind, mode, param, lab)
        assert report.chosen_set == chosen
        assert report.error_bound == bound
        assert same_automaton(report.reduced, reduced)
