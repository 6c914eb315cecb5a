"""FA/PA text formats and corpus readers."""

import random
import re

import pytest

from nfareduce import (Pa, parse_nfa, parse_pa, read_corpus_bin,
                       read_corpus_text, serialize_nfa, serialize_pa,
                       validate_pa)
from nfareduce.errors import FormatError
from nfareduce.formats import BYTE_ALPHABET, format_symbol, parse_symbol

from util import (AB, a2, canon_dfa, lang_upto, random_dfa, random_nfa,
                  random_pa)


class TestSymbols:
    def test_byte_literal(self):
        assert parse_symbol("0x41") == 0x41
        assert format_symbol(0x41) == "0x41"
        assert parse_symbol("0x0a") == 10

    def test_plain_token(self):
        assert parse_symbol("GET") == "GET"
        assert format_symbol("GET") == "GET"

    def test_string_shadowing_byte_rejected(self):
        with pytest.raises(FormatError):
            format_symbol("0x41")

    def test_byte_range(self):
        with pytest.raises(FormatError):
            format_symbol(256)


class TestNfaFormat:
    def test_parse_basic(self):
        text = """
        # the worked 4-state automaton
        %Alphabet a b
        %Initial q0
        q0 a q1
        q1 b q2
        q0 b q3
        %Final q2 q3
        """
        a = parse_nfa(text)  # names indexed in order of first appearance
        assert a == a2()

    def test_names_by_first_appearance(self):
        a = parse_nfa("%Alphabet a\n%Initial start\n%Final stop\nstart a stop\n")
        assert a.initial == {0}
        assert a.final == {1}

    def test_implicit_byte_alphabet(self):
        a = parse_nfa("%Initial q\n%Final q\nq 0x00 q\nq 0xFF q\n")
        assert a.alphabet == BYTE_ALPHABET
        assert a.succ(0, 0) == (0,)
        assert a.succ(0, 255) == (0,)

    def test_symbol_outside_alphabet(self):
        with pytest.raises(FormatError):
            parse_nfa("%Alphabet a\n%Initial q\n%Final q\nq b q\n")

    def test_unknown_directive(self):
        with pytest.raises(FormatError):
            parse_nfa("%Bogus x\n")

    def test_malformed_transition(self):
        with pytest.raises(FormatError):
            parse_nfa("%Alphabet a\nq a\n")

    def test_repeated_transition_allowed(self):
        a = parse_nfa("%Alphabet a\n%Initial q\n%Final q q\nq a q\nq a q\n")
        assert list(a.transitions()) == [(0, "a", 0)]
        assert a.final == {0}

    def test_round_trip_modulo_renaming(self):
        rng = random.Random(71)
        for _ in range(25):
            a = random_nfa(rng)
            again = parse_nfa(serialize_nfa(a))
            assert again.num_states == a.num_states
            assert again.num_transitions() == a.num_transitions()
            assert len(again.initial) == len(a.initial)
            assert len(again.final) == len(a.final)
            assert lang_upto(again, 4) == lang_upto(a, 4)

    def test_round_trip_dfa_isomorphic(self):
        rng = random.Random(74)
        for _ in range(20):
            a = random_dfa(rng)
            assert canon_dfa(parse_nfa(serialize_nfa(a))) == canon_dfa(a)

    def test_serialization_deterministic(self):
        a = a2()
        assert serialize_nfa(a) == serialize_nfa(a2())
        text = serialize_nfa(a)
        assert serialize_nfa(parse_nfa(text)) == \
            serialize_nfa(parse_nfa(text))


class TestPaFormat:
    def test_round_trip_exact(self):
        rng = random.Random(72)
        for _ in range(15):
            p = random_pa(rng)
            text = serialize_pa(p)
            again = parse_pa(text)
            assert serialize_pa(again) == text
            assert validate_pa(again) == []

    def test_rejects_invalid_pa(self):
        bad = "%Alphabet a\n%Initial q0 0.5\n%Final q0 1.0\n"
        with pytest.raises(FormatError):
            parse_pa(bad)

    def test_weight_out_of_range(self):
        with pytest.raises(FormatError):
            parse_pa("%Alphabet a\n%Initial q0 1.5\n%Final q0 1.0\n")

    def test_nan_weight_rejected(self):
        # a NaN is neither below 0 nor above 1, and a NaN transition is
        # left out of the support, so no mass check would see it
        text = "%Alphabet a\n%Initial 0 1\n%Final 0 0.5\n0 a 0 nan\n"
        with pytest.raises(FormatError,
                           match=re.escape("line 4: weight 'nan' outside")):
            parse_pa(text)

    @pytest.mark.parametrize("body, where", [
        ("%Final 0 0.5\n0 a 0 0.25\n0 a 0 0.5\n",
         "line 5: '0 a 0' given twice (first on line 4)"),
        ("%Final 0 0.25\n%Final 0 0.5\n0 a 0 0.5\n",
         "line 4: '%Final 0' given twice (first on line 3)"),
        ("%Initial 0 1\n%Final 0 0.5\n0 a 0 0.5\n",
         "line 3: '%Initial 0' given twice (first on line 2)"),
    ], ids=["transition", "final", "initial"])
    def test_repeated_entry_rejected(self, body, where):
        # with the last weight kept, each of these is a valid PA, though
        # the first two give state 0 an accept-or-leave mass of 1.25
        text = "%Alphabet a b\n%Initial 0 1\n" + body
        with pytest.raises(FormatError, match=re.escape(where)):
            parse_pa(text)

    @pytest.mark.parametrize("final, loop, problem", [
        ("1.0005e-9", "0.999999999999", "total probability 1000.5"),
        ("1e-10", "1.0", "spectral radius >= 1"),
    ], ids=["mass-1000", "singular"])
    def test_total_mass_checked(self, final, loop, problem):
        # each state accepts or leaves with mass 1 to within 1e-9, but the
        # loop keeps (nearly) all of it, so the words do not sum to 1
        text = (f"%Alphabet a b\n%Initial 0 1\n%Final 0 {final}\n"
                f"0 a 0 {loop}\n")
        with pytest.raises(FormatError, match=re.escape(problem)):
            parse_pa(text)

    def test_seventeen_digits_survive(self):
        p = Pa(AB, [1.0], [1 / 3],
               [(0, "a", 0, 1 / 3), (0, "b", 0, 1 / 3)])
        again = parse_pa(serialize_pa(p))
        assert again.final[0] == p.final[0]
        assert again.row("a", 0)[0] == 1 / 3


class TestCorpora:
    def test_text_words(self):
        words = read_corpus_text("a b\n\nb\n")
        assert words == [("a", "b"), (), ("b",)]

    def test_text_byte_tokens(self):
        assert read_corpus_text("0x41 0x42\n") == [((0x41, 0x42))]

    def test_bin_records(self):
        blob = (b"\x02\x00\x00\x00" + b"AB"
                + b"\x00\x00\x00\x00"
                + b"\x01\x00\x00\x00" + b"\xff")
        assert read_corpus_bin(blob) == [(65, 66), (), (255,)]

    def test_bin_truncated(self):
        with pytest.raises(FormatError):
            read_corpus_bin(b"\x05\x00\x00\x00AB")
        with pytest.raises(FormatError):
            read_corpus_bin(b"\x05\x00")


class TestByteModeAutomata:
    def test_byte_automaton_round_trip(self):
        rng = random.Random(73)
        a = random_dfa(rng, max_states=4, alphabet=(0, 1, 255))
        text = serialize_nfa(a)
        assert "0x00" in text or "0x01" in text or "0xFF" in text
        assert canon_dfa(parse_nfa(text)) == canon_dfa(a)
