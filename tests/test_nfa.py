"""Automaton algebra: construction, core operations, and their invariants."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nfareduce import (Nfa, Pa, accepts, components, coreach, determinize,
                       determinize_with_subsets, product_pa_nfa, reach,
                       restrict, self_loop, serialize_nfa, through_state,
                       trim, trim_survivors)
from nfareduce.errors import AlphabetMismatchError, DeterminizationCapError
from nfareduce.langprob import _deterministic
from nfareduce.nfa import (_accept_all, _live_states, first_hit,
                           restrict_with_map, same_alphabet)

from util import (AB, ABC, BA, a2, banguage_nfa, canon_dfa, lang_upto,
                  nfa_restrict_with_map, nfa_self_loop, nfas, product,
                  random_nfa, same_automaton, same_dfa_language,
                  self_product_unambiguous, stop_first_hit,
                  symmetric_difference, trapped_nfas, union, words_upto)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def chain():
    return Nfa(3, AB, [(0, "a", 1), (1, "b", 2)], [0], [2])


def universal(alphabet=AB):
    return Nfa(1, alphabet, [(0, s, 0) for s in alphabet], [0], [0])


def empty(alphabet=AB):
    return Nfa(0, alphabet)


class TestConstruction:
    def test_validates_states(self):
        with pytest.raises(ValueError):
            Nfa(2, AB, [(0, "a", 5)], [0], [1])
        with pytest.raises(ValueError):
            Nfa(2, AB, [], [3], [1])

    def test_validates_symbols(self):
        with pytest.raises(ValueError):
            Nfa(2, AB, [(0, "z", 1)], [0], [1])
        with pytest.raises(ValueError):
            Nfa(1, (), [], [0], [0])
        with pytest.raises(ValueError):
            Nfa(1, ("a", "a"), [], [0], [0])

    def test_duplicate_transitions_collapse(self):
        a = Nfa(2, AB, [(0, "a", 1), (0, "a", 1)], [0], [1])
        assert a.succ(0, "a") == (1,)
        assert a.num_transitions() == 1

    def test_equality_ignores_name(self):
        x = Nfa(1, AB, [], [0], [0], name="x")
        y = Nfa(1, AB, [], [0], [0], name="y")
        assert x == y


class TestTrimReach:
    def test_unreachable_state_removed(self):
        a = Nfa(4, AB, [(0, "a", 1), (1, "b", 2)], [0], [2])
        t = trim(a)
        assert t == chain()
        assert trim_survivors(a) == {0, 1, 2}

    def test_fixpoint(self):
        a = a2()
        assert trim(a) == a
        assert trim(trim(a)) == trim(a)

    def test_dead_ends_empty(self):
        a = Nfa(3, AB, [(0, "a", 1)], [0], [2])
        assert trim(a).num_states == 0

    def test_reach_chain(self):
        a = chain()
        assert reach(a, [0]) == {0, 1, 2}
        assert reach(a, [2]) == {2}
        assert reach(a, []) == frozenset()

    def test_trim_idempotent_random(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_nfa(rng)
            assert trim(a) == a  # random_nfa already trims


class TestRestrict:
    def test_keep_all(self):
        a = a2()
        assert restrict(a, range(4)) == a

    def test_keep_none(self):
        assert restrict(a2(), []).num_states == 0

    def test_keep_subset_language(self):
        r = restrict(a2(), [0, 3])
        assert lang_upto(r, 4) == {("b",)}

    def test_under_approximates(self):
        rng = random.Random(6)
        for _ in range(30):
            a = random_nfa(rng, max_states=6)
            keep = rng.sample(range(a.num_states),
                              k=rng.randint(0, a.num_states))
            r = restrict(a, keep)
            for w in words_upto(a.alphabet, 4):
                if accepts(r, w):
                    assert accepts(a, w)


class TestSelfLoop:
    def test_empty_set_is_identity(self):
        a = a2()
        assert self_loop(a, []) == a

    def test_worked_example(self):
        looped = self_loop(a2(), [1])
        # every word leading into state 1 is accepted with any ending
        want = {("b",)} | {("a",) + w for w in words_upto(AB, 3)}
        assert lang_upto(looped, 4) == want

    def test_all_states_single_initial(self):
        t = trim(self_loop(chain(), [0, 1, 2]))
        assert t.num_states == 1
        assert lang_upto(t, 3) == set(words_upto(AB, 3))

    def test_over_approximates(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_nfa(rng, max_states=6)
            r = rng.sample(range(a.num_states), k=rng.randint(0, a.num_states))
            looped = self_loop(a, r)
            for w in words_upto(a.alphabet, 4):
                if accepts(a, w):
                    assert accepts(looped, w)


class TestBuiltWithoutChecks:
    """``restrict_with_map`` and ``self_loop`` fill the store directly;
    they must build what ``Nfa(...)`` builds from the same transitions."""

    @SETTINGS
    @given(st.one_of(nfas(), trapped_nfas()), st.data())
    def test_restrict_with_map_matches_checked_construction(self, a, data):
        keep = data.draw(st.lists(st.integers(0, max(a.num_states - 1, 0)),
                                  max_size=a.num_states))
        got, origins = restrict_with_map(a, keep)
        want, want_origins = nfa_restrict_with_map(a, keep)
        assert origins == want_origins
        assert same_automaton(got, want)

    @SETTINGS
    @given(st.one_of(nfas(), trapped_nfas()), st.data())
    def test_self_loop_matches_checked_construction(self, a, data):
        r = data.draw(st.frozensets(st.integers(0, max(a.num_states - 1, 0)),
                                    max_size=a.num_states))
        assert same_automaton(self_loop(a, r), nfa_self_loop(a, r))

    def test_out_of_range_states_still_rejected(self):
        with pytest.raises(ValueError):
            restrict(a2(), [4])
        with pytest.raises(ValueError):
            self_loop(a2(), [-1])


class TestSameAlphabet:
    def test_permuted_alphabet_is_accepted(self):
        assert same_alphabet(universal(AB), universal(BA)) == AB
        assert same_alphabet(universal(BA), universal(AB)) == BA

    def test_different_alphabet_raises(self):
        with pytest.raises(AlphabetMismatchError,
                           match=r"^alphabets differ: 2 vs 3 symbols, 1 in "
                                 r"only one: 'c'$"):
            same_alphabet(universal(AB), universal(ABC))

    def test_byte_against_text_alphabet_names_at_most_8_symbols(self):
        with pytest.raises(AlphabetMismatchError,
                           match=r"^alphabets differ: 256 vs 2 symbols, 258 "
                                 r"in only one: 0, 1, 2, 3, 4, 5, 6, 7, \.\.\.$"):
            same_alphabet(universal(tuple(range(256))), universal(AB))


class TestUnionProduct:
    def test_union_with_empty(self):
        a = a2()
        u = union(a, empty())
        assert lang_upto(u, 4) == lang_upto(a, 4)

    def test_union_sizes_and_language(self):
        x = Nfa(2, AB, [(0, "a", 1)], [0], [1])
        y = Nfa(2, AB, [(0, "b", 1)], [0], [1])
        u = union(x, y)
        assert u.num_states == 4
        assert lang_upto(u, 2) == {("a",), ("b",)}

    def test_union_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            union(a2(), universal(ABC))

    def test_product_with_self(self):
        a = a2()  # deterministic
        assert canon_dfa(trim(product(a, a))) == canon_dfa(trim(a))

    def test_product_prefix_suffix(self):
        # words starting with a and ending with b
        starts = Nfa(2, AB, [(0, "a", 1)] + [(1, s, 1) for s in AB], [0], [1])
        ends = Nfa(2, AB, [(0, s, 0) for s in AB] + [(0, "b", 1)], [0], [1])
        p = product(starts, ends)
        want = {w for w in words_upto(AB, 6)
                if w and w[0] == "a" and w[-1] == "b"}
        assert lang_upto(p, 6) == want

    def test_product_with_empty(self):
        assert lang_upto(product(a2(), empty()), 4) == set()

    def test_membership_equivalences_random(self):
        rng = random.Random(8)
        for _ in range(25):
            x = random_nfa(rng, max_states=6)
            y = random_nfa(rng, max_states=6, alphabet=x.alphabet)
            prod = product(x, y)
            uni = union(x, y)
            for w in words_upto(x.alphabet, 6):
                assert accepts(prod, w) == (accepts(x, w) and accepts(y, w))
                assert accepts(uni, w) == (accepts(x, w) or accepts(y, w))


class TestAmbiguity:
    def test_two_runs(self):
        a = Nfa(3, AB, [(0, "a", 1), (0, "a", 2)], [0], [1, 2])
        assert not self_product_unambiguous(a)
        assert not _deterministic(a)
        d = determinize(a)
        assert _deterministic(d)
        assert self_product_unambiguous(d)


class TestDeterminize:
    def test_deterministic_input_isomorphic(self):
        a = a2()
        d = determinize(a)
        assert d.num_states == a.num_states
        assert lang_upto(d, 5) == lang_upto(a, 5)

    def test_two_run_automaton(self):
        a = Nfa(3, AB, [(0, "a", 1), (0, "a", 2)], [0], [1, 2])
        d, subsets = determinize_with_subsets(a)
        assert d.num_states == 2
        assert subsets == (frozenset({0}), frozenset({1, 2}))

    def test_preserves_language_and_disambiguates(self):
        rng = random.Random(9)
        for _ in range(20):
            a = random_nfa(rng, max_states=6)
            d = determinize(a)
            assert d.num_states <= 2 ** a.num_states
            assert self_product_unambiguous(d)
            for w in words_upto(a.alphabet, 6):
                assert accepts(d, w) == accepts(a, w)

    def test_cap(self):
        a = Nfa(3, AB, [(0, "a", 1), (0, "a", 2), (1, "b", 0)], [0], [1, 2])
        with pytest.raises(DeterminizationCapError):
            determinize(a, cap=1)


class TestAcceptAll:
    def test_accept_all_states(self):
        # 0: final, loops on both symbols and also moves on; 1: final,
        # loops on "a" only; 2: loops on both but is not final
        a = Nfa(3, AB, [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "a", 1),
                        (2, "a", 2), (2, "b", 2)], [0], [0, 1])
        assert _accept_all(a) == {0}

    def test_subset_holding_one_is_cut_to_the_smallest(self):
        # 3 and 4 accept everything; {1, 3, 4} becomes {3}, which stays
        a = Nfa(5, AB, [(0, "a", 1), (0, "a", 3), (0, "a", 4), (0, "b", 2)]
                + [(q, sym, q) for q in (3, 4) for sym in AB], [0], [2, 3, 4])
        d = determinize(a)
        assert d == Nfa(3, AB, [(0, "a", 1), (0, "b", 2), (1, "a", 1),
                                (1, "b", 1)], [0], [1, 2])
        assert determinize_with_subsets(a)[0].num_states == 4

    @SETTINGS
    @given(trapped_nfas())
    def test_determinize_keeps_the_language(self, a):
        d = determinize(a)
        assert self_product_unambiguous(d) and len(d.initial) == 1
        for w in words_upto(BA, 6):
            assert accepts(d, w) == accepts(a, w)

    @SETTINGS
    @given(nfas())
    def test_without_accept_all_states_nothing_changes(self, a):
        assume(not _accept_all(a))
        assert determinize(a) == determinize_with_subsets(a)[0]

    def test_both_sides_trapped_is_dropped(self):
        # on "b" both sides reach an accept-all state: no continuation is
        # in the symmetric difference, so that pair is dropped like an
        # empty successor; on "a" only the first side accepts
        a1 = Nfa(3, AB, [(0, "a", 1), (0, "b", 2), (2, "a", 2), (2, "b", 2)],
                 [0], [1, 2])
        a2 = Nfa(2, AB, [(0, "b", 1), (1, "a", 1), (1, "b", 1)], [0], [1])
        sd = symmetric_difference(a1, a2)
        assert sd == Nfa(2, AB, [(0, "a", 1)], [0], [1])


class TestThroughState:
    def test_worked_examples(self):
        a = a2()
        assert lang_upto(through_state(a, 1), 5) == {("a", "b")}
        assert lang_upto(through_state(a, 0), 5) == lang_upto(a, 5)
        assert lang_upto(through_state(a, 3), 5) == {("b",)}

    def test_matches_brute_force_split(self):
        rng = random.Random(10)
        for _ in range(20):
            a = random_nfa(rng, max_states=5)
            q = rng.randrange(a.num_states)
            ts = through_state(a, q)
            back = lang_upto(banguage_nfa(a, [q]), 4)
            fwd = lang_upto(Nfa(a.num_states, a.alphabet, a.transitions(),
                                [q], a.final), 4)
            want = {u + v for u in back for v in fwd if len(u) + len(v) <= 4}
            assert {w for w in lang_upto(ts, 4)} == want
            assert trim_survivors(ts) == frozenset(range(ts.num_states))


class TestFirstHit:
    @SETTINGS
    @given(st.one_of(nfas(), trapped_nfas()), st.data())
    def test_shortest_prefixes_of_the_back_language(self, a, data):
        # the words of q's back-language none of whose proper prefixes is
        # one; a subset that holds q becomes {q} and stops there
        assume(a.num_states > 0)
        q = data.draw(st.integers(0, a.num_states - 1))
        fh = first_hit(a, q)
        assert _deterministic(fh)
        assert all(not fh.moves(f) for f in fh.final)
        back = lang_upto(banguage_nfa(a, [q]), 5)
        assert lang_upto(fh, 5) == {
            w for w in back if not any(w[:i] in back for i in range(len(w)))}

    def test_worked_example(self):
        # Sigma* a b with q the end of ab: the subsets {0}, {0, 1} and
        # {2}, which {0, 2} becomes and where the DFA stops
        a = Nfa(3, AB, [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "b", 2)],
                [0], [2])
        fh = first_hit(a, 2)
        assert fh.num_states == 3 and len(fh.final) == 1
        assert lang_upto(fh, 4) == {tuple(w) for w in ("ab", "aab", "bab",
                                                       "aaab", "baab", "bbab")}
        assert lang_upto(first_hit(a, 0), 4) == {()}

    @SETTINGS
    @given(st.one_of(nfas(), trapped_nfas()), st.data())
    def test_lumps_the_stopping_construction(self, a, data):
        # the subsets that hold q, which the construction that stops on
        # them keeps apart, become the one final state {q}
        assume(a.num_states > 0)
        q = data.draw(st.integers(0, a.num_states - 1))
        fh, stop = first_hit(a, q), stop_first_hit(a, q)
        assert same_dfa_language(fh, stop)
        assert len(fh.final) <= 1 and all(not fh.moves(f) for f in fh.final)
        assert fh.num_states <= stop.num_states

    def test_cap(self):
        a = Nfa(3, AB, [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "b", 2)],
                [0], [2])
        assert first_hit(a, 2, cap=3).num_states == 3
        with pytest.raises(DeterminizationCapError):
            first_hit(a, 2, cap=2)


class TestBanguageAccepts:
    def test_banguage_of_initial_contains_epsilon(self):
        a = a2()
        assert accepts(banguage_nfa(a, a.initial), ())

    def test_banguage_worked(self):
        assert lang_upto(banguage_nfa(a2(), [2]), 5) == {("a", "b")}
        assert lang_upto(banguage_nfa(a2(), []), 5) == set()

    def test_accepts(self):
        a = a2()
        assert accepts(a, ("a", "b"))
        assert not accepts(a, ("a", "a"))
        assert not accepts(a, ())

    def test_accepts_unknown_symbol(self):
        with pytest.raises(ValueError):
            accepts(a2(), ("z",))


class TestComponents:
    def test_union_has_two(self):
        u = union(a2(), chain())
        comps = components(u)
        assert comps == [frozenset({0, 1, 2, 3}), frozenset({4, 5, 6})]

    def test_connected_single(self):
        assert components(a2()) == [frozenset({0, 1, 2, 3})]

    def test_isolated_state(self):
        a = Nfa(3, AB, [(0, "a", 1)], [0], [1])
        assert frozenset({2}) in components(a)

    def test_partition(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_nfa(rng)
            comps = components(a)
            seen = set()
            for c in comps:
                assert not (seen & c)
                seen |= c
            assert seen == set(range(a.num_states))


class TestDiscoveryOrder:
    """Constructions number their states breadth-first from the initial
    states, visiting symbols in alphabet order and successors ascending.
    State numberings feed every matrix, label and output file, so the exact
    order is pinned here on an alphabet whose order is not lexical."""

    BA = ("b", "a")

    def nfa(self):
        return Nfa(5, self.BA,
                   [(0, "a", 2), (0, "a", 1), (0, "b", 3), (1, "b", 2),
                    (1, "a", 4), (2, "a", 3), (2, "b", 4), (3, "b", 3),
                    (4, "a", 0)],
                   initial=[1, 0], final=[3, 4])

    def test_determinize_subsets(self):
        _, subsets = determinize_with_subsets(self.nfa())
        assert subsets == tuple(frozenset(s) for s in (
            (0, 1), (2, 3), (1, 2, 4), (3, 4), (3,), (2, 4), (0, 3, 4), (0,),
            (4,), (0, 3), (0, 1, 2), (1, 2), (2, 3, 4), (1, 2, 3, 4)))

    def test_through_state_serialized(self):
        # state 3 cannot reach 2, so it appears with flag 1 only
        assert serialize_nfa(through_state(self.nfa(), 2)) == (
            "%Alphabet b a\n%Initial 0 1\n%Final 4 5\n"
            "0 a 1\n0 a 2\n1 b 2\n1 a 3\n2 b 4\n2 a 5\n3 a 0\n4 a 6\n"
            "5 b 5\n6 b 5\n6 a 2\n6 a 7\n7 b 2\n7 a 4\n")

    def test_pa_product_pair_map(self):
        p = Pa(self.BA, [0.5, 0.5], [0.5, 0.5],
               [(0, "b", 1, 0.25), (0, "a", 0, 0.25), (1, "a", 0, 0.25),
                (1, "b", 1, 0.25)])
        assert product_pa_nfa(p, self.nfa()).pair_map == (
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 3), (0, 2), (1, 2), (0, 4),
            (1, 4), (0, 3))


@SETTINGS
@given(nfas())
def test_live_states_are_built_once_per_automaton(a):
    live = _live_states(a)
    assert live == coreach(a, a.final)
    for q in range(a.num_states):
        through_state(a, q)
    assert _live_states(a) is live
