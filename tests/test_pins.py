"""Bit-for-bit pins of the language probabilities, the six labellings
and the distance on one small instance, on both solve paths.

Faster code paths must not change a single bit of these values: state
numberings and summation orders feed the linear systems, so any change in
either shows here before it shows in a rounded comparison.
"""

import pytest

from nfareduce import (Nfa, Pa, distance, is_unambiguous, label_prune,
                       label_selfloop, prob_lang, reduce_prune, validate_pa,
                       weight_lang)
from nfareduce import langprob

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
    "prob": "0x1.15bcdc78be327p-3",
    "weight": "0x1.7c5ad30875898p-1",
    "distance": "0x1.f662203bd653ep-4",
    "p1": ("0x1.15bcdc78be326p-3", "0x1.a8bcc5ad30876p-7",
           "0x1.a8bcc5ad30876p-7", "0x1.a8bcc5ad30876p-7",
           "0x1.f662203bd653dp-4", "0x1.f662203bd653dp-4",
           "0x1.f662203bd653dp-4"),
    "p2": ("0x1.15bcdc78be327p-3", "0x1.a8bcc5ad30876p-7",
           "0x1.a8bcc5ad30876p-7", "0x1.a8bcc5ad30876p-7",
           "0x1.f662203bd653dp-4", "0x1.f662203bd653dp-4",
           "0x1.f662203bd653dp-4"),
    "p3": ("0x1.15bcdc78be327p-3", "0x1.a8bcc5ad30876p-7",
           "0x1.a8bcc5ad30876p-7", "0x1.a8bcc5ad30876p-7",
           "0x1.f662203bd653dp-4", "0x1.2d6e13571a326p-5",
           "0x1.f662203bd653dp-4"),
    "sl1": ("0x1.9bd37a6f4de9cp+2", "0x1.0975fb8c3e549p+1",
            "0x1.0975fb8c3e549p-1", "0x1.0975fb8c3e549p-3",
            "0x1.c08e78356d142p+0", "0x1.0d2248200e3f5p-1",
            "0x1.39fd542565f47p-1"),
    "sl2": ("0x1.0000000000000p+0", "0x1.69d0369d0369ep-1",
            "0x1.5206bb7024d9bp-2", "0x1.d0a2abcd97686p-4",
            "0x1.31aed6a9264e1p-1", "0x1.1e3f18eb57a95p-2",
            "0x1.8fd2145698db2p-2"),
    "sl3": ("0x1.ba90c8e1d0736p-1", "0x1.632d43864ea7cp-1",
            "0x1.44c0d542bb557p-2", "0x1.9b8b1317f1577p-4",
            "0x1.e5c5254357073p-2", "0x1.f122ad00e8c60p-3",
            "0x1.12398c47a3463p-2"),
}

SPARSE = {
    "prob": "0x1.15bcdc78955d6p-3",
    "weight": "0x1.7c5ad3086ae97p-1",
    "distance": "0x1.f662203bd4a4bp-4",
    "p1": ("0x1.15bcdc786b4aap-3", "0x1.a8bcc5aab0b0cp-7",
           "0x1.a8bcc5aab0b0cp-7", "0x1.a8bcc5aab0b0cp-7",
           "0x1.f662203b807f3p-4", "0x1.f662203b807f3p-4",
           "0x1.f662203b807f3p-4"),
    "p2": ("0x1.15bcdc78955d6p-3", "0x1.a8bcc5aab0b0cp-7",
           "0x1.a8bcc5aab0b0cp-7", "0x1.a8bcc5aab0b0cp-7",
           "0x1.f662203b807f3p-4", "0x1.f662203b807f3p-4",
           "0x1.f662203b807f3p-4"),
    "p3": ("0x1.15bcdc78955d6p-3", "0x1.a8bcc5aab0b0cp-7",
           "0x1.a8bcc5aab0b0cp-7", "0x1.a8bcc5aab0b0cp-7",
           "0x1.f662203b807f3p-4", "0x1.2d6e135673e47p-5",
           "0x1.f662203b807f3p-4"),
    "sl1": ("0x1.9bd37a6f4ca6fp+2", "0x1.0975fb8c3bb34p+1",
            "0x1.0975fb8c34499p-1", "0x1.0975fb8c17fc0p-3",
            "0x1.c08e783567d26p+0", "0x1.0d224820040fbp-1",
            "0x1.39fd54255be74p-1"),
    "sl2": ("0x1.fffffffff62e8p-1", "0x1.69d0369cf9984p-1",
            "0x1.5206bb7011369p-2", "0x1.d0a2abcd48ff6p-4",
            "0x1.31aed6a91c7c9p-1", "0x1.1e3f18eb44066p-2",
            "0x1.8fd2145685382p-2"),
    "sl3": ("0x1.ba90c8e1d0d72p-1", "0x1.632d43864ed58p-1",
            "0x1.44c0d542bbb11p-2", "0x1.9b8b1317f2e94p-4",
            "0x1.e5c5254358d95p-2", "0x1.f122ad00eb13ap-3",
            "0x1.12398c47a5185p-2"),
}


@pytest.mark.parametrize("limit, want", [(langprob.DENSE_SOLVE_LIMIT, DENSE),
                                         (0, SPARSE)],
                         ids=["dense", "sparse"])
def test_values_bit_for_bit(monkeypatch, limit, want):
    monkeypatch.setattr(langprob, "DENSE_SOLVE_LIMIT", limit)
    a, p = rules(), model()
    assert validate_pa(p) == []
    assert not is_unambiguous(a)
    assert prob_lang(p, a).hex() == want["prob"]
    assert weight_lang(p, a).hex() == want["weight"]
    assert distance(a, reduce_prune(a, {4}), p).hex() == want["distance"]
    for kind, fn in (("p", label_prune), ("sl", label_selfloop)):
        for variant in (1, 2, 3):
            values = fn(a, p, variant).values
            assert tuple(x.hex() for x in values) == want[f"{kind}{variant}"]
