"""p3, sl1, sl2 and ``distance`` on byte rule sets with universal sinks,
against 40-digit references.

Two seeded sets of 4 Sigma*-prefixed byte rules (``util.byte_rule_set``
with seed "sinks"), where rules 0 and 2 match anywhere, so their accepting
states lead to a universal accepting sink: the four rules as one set, 40
states in one component, and the same rules in two groups of two, side by
side, 42 states in two components.  The float ``util.oracle_labels`` is
no reference on such sets: on the first, its p3 of state 15 is 7.2 times
the true value and its sl1 of state 2 is off by 6.0e-6 relative.  So each
label is held to ``util.mp_lang`` at 1e-12 relative, per component, of
the oracle acceptors: p3 of the through-state acceptor, sl1 as the
unit-weight value of the back-language acceptor, and sl2 of the
back-language followed by Sigma*.  A 40-digit solve costs up to 0.25 s
per state, so every third state is checked.  The ``distance`` of one
size-mode prune output per set is held to ``util.mp_distance``.
"""

import pytest

from nfareduce import (ReductionConfig, distance, greedy_size_driven,
                       label_prune, label_selfloop)

from util import (banguage_nfa, byte_rule_set, mp_distance, mp_lang,
                  naive_components, nfa_restrict_with_map, prefix_universal,
                  through_state)


@pytest.fixture(scope="module", params=[1, 2],
                ids=["one_component", "two_groups"])
def instance(request):
    a, p = byte_rule_set(4, "sinks", {0, 2}, groups=request.param)
    assert len(a.alphabet) == 256
    assert len(naive_components(a)) == request.param
    return a, p


def reference(name, p, sub, q):
    """The 40-digit value of label ``name`` of state ``q`` of ``sub``."""
    if name == "p3":
        return mp_lang(p, through_state(sub, q))
    if name == "sl1":
        return mp_lang(p, banguage_nfa(sub, [q]), final_weights="unit")
    return mp_lang(p, prefix_universal(sub, q))


@pytest.mark.parametrize("name", ["p3", "sl1", "sl2"])
def test_labels_match_mpmath(instance, name):
    a, p = instance
    fn = label_prune if name == "p3" else label_selfloop
    got = fn(a, p, int(name[-1])).values
    for comp in naive_components(a):
        sub, origins = nfa_restrict_with_map(a, comp)
        for q, orig_q in enumerate(origins):
            if orig_q % 3 == 0:
                want = float(reference(name, p, sub, q))
                assert got[orig_q] == pytest.approx(want, rel=1e-12,
                                                    abs=0.0), orig_q


def test_distance_of_a_greedy_output_matches_mpmath(instance):
    a, p = instance
    report = greedy_size_driven(a, p, ReductionConfig("prune", 2, "size", 30))
    assert report.reduced.num_states < a.num_states
    want = mp_distance(p, a, report.reduced)
    assert want > 0.0
    assert distance(a, report.reduced, p) == pytest.approx(want, rel=1e-12,
                                                           abs=0.0)
