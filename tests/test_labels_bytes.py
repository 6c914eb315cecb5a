"""The labellings and ``distance`` on a byte-alphabet rule set at the
paper's shape, where symbol classes merge.

A seeded Sigma*-prefixed set of 10 rules over the 256 bytes (102 states,
one component) from the benchmark's generators.  The library quotients the
bytes into classes per component and again per ``prob_lang`` call
(``langprob._quotient``); the oracles of ``util`` run with the quotient
switched off, so they see every byte.  All six label variants must match
``util.oracle_labels`` at 1e-12 relative, sl3 within 1e-12 of its sl2 as
in ``test_label_engine``; sl3's oracle is sl2's less p3's, which is how
``oracle_labels`` computes it, so both are taken once.  The ``distance``
of one greedy output is held to ``util.mp_distance``.

The same model over the reversed byte order changes no bit of any
labelling, of what either greedy mode chooses and bounds for either kind,
or of the ``distance`` of each greedy output.
"""

from unittest import mock

import pytest

from nfareduce import (Pa, ReductionConfig, distance, greedy_error_driven,
                       greedy_size_driven, label_prune, label_selfloop,
                       langprob, serialize_nfa)

from util import byte_rule_set, mp_distance, oracle_labels


@pytest.fixture(scope="module")
def instance():
    a, p = byte_rule_set(10)
    assert a.num_states == 102 and len(a.alphabet) == 256
    return a, p


def whole_alphabet():
    """The quotient switched off: every automaton keeps every byte."""
    return mock.patch.object(langprob, "_quotient",
                             lambda p, automata: (p, automata))


@pytest.fixture(scope="module")
def oracles(instance):
    a, p = instance
    with whole_alphabet():
        want = {f"{prefix}{variant}": oracle_labels(a, p, kind, variant)
                for kind, prefix in (("prune", "p"), ("selfloop", "sl"))
                for variant in (1, 2) + ((3,) if kind == "prune" else ())}
    want["sl3"] = [max(x - y, 0.0) for x, y in zip(want["sl2"], want["p3"])]
    return want


@pytest.mark.parametrize("name", ["p1", "p2", "p3", "sl1", "sl2", "sl3"])
def test_labels_match_the_oracle(instance, oracles, name):
    a, p = instance
    fn = label_prune if name.startswith("p") else label_selfloop
    got = fn(a, p, int(name[-1])).values
    want = oracles[name]
    if name == "sl3":
        for x, y, sl2 in zip(got, want, oracles["sl2"]):
            assert x == pytest.approx(y, rel=1e-12, abs=1e-12 * sl2)
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_distance_of_a_greedy_output_matches_mpmath(instance):
    a, p = instance
    report = greedy_size_driven(a, p, ReductionConfig("prune", 2, "size", 51))
    assert report.reduced.num_states < a.num_states
    want = mp_distance(p, a, report.reduced)
    assert want > 0.0
    assert distance(a, report.reduced, p) == pytest.approx(want, rel=1e-12,
                                                           abs=0.0)


# an error budget per kind that sacrifices some states but not all
BUDGETS = {"prune": 1e-15, "selfloop": 1e-2}


def test_a_reversed_model_changes_no_bits(instance):
    a, p = instance
    rev = Pa(p.alphabet[::-1], p.initial, p.final, p.entries())
    for fn in (label_prune, label_selfloop):
        for variant in (1, 2, 3):
            assert fn(a, rev, variant) == fn(a, p, variant)
    for kind in ("prune", "selfloop"):
        for greedy, cfg in (
                (greedy_size_driven, ReductionConfig(kind, 2, "size", 51)),
                (greedy_error_driven,
                 ReductionConfig(kind, 2, "error", BUDGETS[kind]))):
            want, got = greedy(a, p, cfg), greedy(a, rev, cfg)
            assert 0 < len(want.chosen_set) < a.num_states
            assert got.chosen_set == want.chosen_set
            assert got.error_bound == want.error_bound
            assert serialize_nfa(got.reduced) == serialize_nfa(want.reduced)
            assert (distance(a, want.reduced, rev)
                    == distance(a, want.reduced, p))
