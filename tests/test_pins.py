"""Bit-for-bit pins of the language probabilities, the six labellings
and the distance on one small instance, on both solve paths.

Faster code paths must not change a single bit of these values: state
numberings and summation orders feed the linear systems, so any change in
either shows here before it shows in a rounded comparison.  The pins are
not taken on trust: every solve behind them, the value and each entry of
its vector y, is also held to a 40-digit mpmath solve of the same product.
"""

import pytest

from nfareduce import (Nfa, Pa, distance, label_prune, label_selfloop,
                       prob_lang, reduce_prune, validate_pa)
from nfareduce import labels, langprob

from util import mp_solve_star, mp_solve_y, self_product_unambiguous

ABC = ("a", "b", "c")


def rules():
    """Sigma* on state 0, then two rules: ``abc`` (states 1-3) and
    ``b{1,2}a`` (states 4-6).  The second leads with its repeat, so a word
    like ``bba`` has two accepting runs: the automaton is ambiguous."""
    t = [(0, s, 0) for s in ABC]
    t += [(0, "a", 1), (1, "b", 2), (2, "c", 3)]
    t += [(0, "b", 4), (4, "b", 5), (4, "a", 6), (5, "a", 6)]
    return Nfa(7, ABC, t, [0], [3, 6])


def model():
    return Pa(ABC, [0.6, 0.4], [0.2, 0.1],
              [(0, "a", 0, 0.3), (0, "b", 1, 0.25), (0, "c", 0, 0.25),
               (1, "a", 0, 0.35), (1, "b", 1, 0.3), (1, "c", 1, 0.25)])


DENSE = {
    "prob": "0x1.15bcdc78be326p-3",
    "distance": "0x1.f662203bd653dp-4",
    "p1": ("0x1.15bcdc78be326p-3", "0x1.a8bcc5ad30875p-7",
           "0x1.a8bcc5ad30875p-7", "0x1.a8bcc5ad30875p-7",
           "0x1.f662203bd653dp-4", "0x1.f662203bd653dp-4",
           "0x1.f662203bd653dp-4"),
    "p2": ("0x1.15bcdc78be326p-3", "0x1.a8bcc5ad30875p-7",
           "0x1.a8bcc5ad30875p-7", "0x1.a8bcc5ad30875p-7",
           "0x1.f662203bd653dp-4", "0x1.f662203bd653dp-4",
           "0x1.f662203bd653dp-4"),
    "p3": ("0x1.15bcdc78be326p-3", "0x1.a8bcc5ad30875p-7",
           "0x1.a8bcc5ad30875p-7", "0x1.a8bcc5ad30875p-7",
           "0x1.f662203bd653dp-4", "0x1.2d6e13571a325p-5",
           "0x1.f662203bd653dp-4"),
    "sl1": ("0x1.9bd37a6f4de9ap+2", "0x1.0975fb8c3e549p+1",
            "0x1.0975fb8c3e549p-1", "0x1.0975fb8c3e549p-3",
            "0x1.c08e78356d140p+0", "0x1.0d2248200e3f3p-1",
            "0x1.39fd542565f46p-1"),
    "sl2": ("0x1.0000000000000p+0", "0x1.69d0369d0369ep-1",
            "0x1.5206bb7024d9ap-2", "0x1.d0a2abcd9768ap-4",
            "0x1.31aed6a9264e3p-1", "0x1.1e3f18eb57a96p-2",
            "0x1.8fd2145698db3p-2"),
    "sl3": ("0x1.ba90c8e1d0736p-1", "0x1.632d43864ea7cp-1",
            "0x1.44c0d542bb556p-2", "0x1.9b8b1317f157bp-4",
            "0x1.e5c5254357077p-2", "0x1.f122ad00e8c63p-3",
            "0x1.12398c47a3464p-2"),
}

SPARSE = {
    "prob": "0x1.15bcdc78be326p-3",
    "distance": "0x1.f662203bd653fp-4",
    "p1": ("0x1.15bcdc78be326p-3", "0x1.a8bcc5ad30875p-7",
           "0x1.a8bcc5ad30875p-7", "0x1.a8bcc5ad30875p-7",
           "0x1.f662203bd653dp-4", "0x1.f662203bd653dp-4",
           "0x1.f662203bd653dp-4"),
    "p2": ("0x1.15bcdc78be326p-3", "0x1.a8bcc5ad30875p-7",
           "0x1.a8bcc5ad30875p-7", "0x1.a8bcc5ad30875p-7",
           "0x1.f662203bd653dp-4", "0x1.f662203bd653dp-4",
           "0x1.f662203bd653dp-4"),
    "p3": ("0x1.15bcdc78be326p-3", "0x1.a8bcc5ad30877p-7",
           "0x1.a8bcc5ad30877p-7", "0x1.a8bcc5ad30877p-7",
           "0x1.f662203bd653fp-4", "0x1.2d6e13571a326p-5",
           "0x1.f662203bd653fp-4"),
    "sl1": ("0x1.9bd37a6f4de9bp+2", "0x1.0975fb8c3e54ap+1",
            "0x1.0975fb8c3e549p-1", "0x1.0975fb8c3e549p-3",
            "0x1.c08e78356d140p+0", "0x1.0d2248200e3f3p-1",
            "0x1.39fd542565f46p-1"),
    "sl2": ("0x1.0000000000000p+0", "0x1.69d0369d0369dp-1",
            "0x1.5206bb7024d9ap-2", "0x1.d0a2abcd9768cp-4",
            "0x1.31aed6a9264e3p-1", "0x1.1e3f18eb57a97p-2",
            "0x1.8fd2145698db3p-2"),
    "sl3": ("0x1.ba90c8e1d0736p-1", "0x1.632d43864ea7bp-1",
            "0x1.44c0d542bb556p-2", "0x1.9b8b1317f157dp-4",
            "0x1.e5c5254357076p-2", "0x1.f122ad00e8c64p-3",
            "0x1.12398c47a3463p-2"),
}

# solves behind the values above, on either path: language solves on a
# product, one y per component DFA product (p1, p2 and sl1), and one
# language solve per state's first-hit DFA product under the
# continuation-mass model, whose subsets that hold the state absorb (sl2,
# and sl2 again under sl3)
SOLVES = 16
DFA_PRODUCTS = 3
ABSORBING = 14


def record(monkeypatch, name, log, modules):
    """Log every (arguments, result) of the solve ``name``, at each of
    ``modules``, which bind it."""
    solve = getattr(langprob, name)

    def recorded(*args):
        out = solve(*args)
        log.append((args, out))
        return out

    for module in modules:
        monkeypatch.setattr(module, name, recorded)


@pytest.mark.parametrize("limit, want", [(langprob.DENSE_SOLVE_LIMIT, DENSE),
                                         (0, SPARSE)],
                         ids=["dense", "sparse"])
def test_values_bit_for_bit(monkeypatch, limit, want):
    monkeypatch.setattr(langprob, "DENSE_SOLVE_LIMIT", limit)
    stars, ys = [], []
    record(monkeypatch, "_solve_star", stars, (langprob,))
    record(monkeypatch, "_solve_y", ys, (langprob, labels))
    a, p = rules(), model()
    assert validate_pa(p) == []
    assert not self_product_unambiguous(a)
    assert prob_lang(p, a).hex() == want["prob"]
    assert distance(a, reduce_prune(a, {4}), p).hex() == want["distance"]
    for kind, fn in (("p", label_prune), ("sl", label_selfloop)):
        for variant in (1, 2, 3):
            values = fn(a, p, variant).values
            assert tuple(x.hex() for x in values) == want[f"{kind}{variant}"]
    # a y solve behind each language solve, first-hit ones included, and
    # each component DFA product
    assert (len(stars), len(ys)) == (SOLVES + ABSORBING,
                                     SOLVES + DFA_PRODUCTS + ABSORBING)
    for (r,), value in stars:
        assert value == pytest.approx(float(mp_solve_star(r)), rel=1e-12,
                                      abs=0.0)
    for (r,), y in ys:
        assert y.tolist() == pytest.approx(
            [float(v) for v in mp_solve_y(r)], rel=1e-12, abs=0.0)
