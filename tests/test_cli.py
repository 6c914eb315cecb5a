"""End-to-end CLI runs over temporary files."""

import hashlib
import json

import pytest

from nfareduce import accepts, parse_nfa, parse_pa, serialize_pa, traffic
from nfareduce.cli import main

from util import lang_upto, mp_distance

A2_FA = """\
%Alphabet a b
%Initial q0
q0 a q1
q1 b q2
q0 b q3
%Final q2 q3
"""

P_EXP_PA = """\
%Alphabet a b
%Initial q0 1
%Final q0 0.33333333333333331
q0 a q0 0.33333333333333331
q0 b q0 0.33333333333333331
"""

# Sigma*abc | Sigma*bca | Sigma*cab | Sigma*acb, one chain per rule
SIGMA_RULES_FA = """\
%Alphabet a b c
%Initial 0
0 a 0
0 b 0
0 c 0
0 a 1
1 b 2
2 c 3
0 b 4
4 c 5
5 a 6
0 c 7
7 a 8
8 b 9
0 a 10
10 c 11
11 b 12
%Final 3 6 9 12
"""

UNIFORM_ABC_PA = """\
%Alphabet a b c
%Initial q0 1
%Final q0 0.25
q0 a q0 0.25
q0 b q0 0.25
q0 c q0 0.25
"""

# Sigma*aab | Sigma*bba | Sigma*abb, one chain per rule: the component
# DFA has 9 subsets, every first-hit DFA at most 4, and the through-state
# DFA of state 0 (the whole language) 9
SIGMA_AB_RULES_FA = """\
%Alphabet a b
%Initial 0
0 a 0
0 b 0
0 a 1
1 a 2
2 b 3
0 b 4
4 b 5
5 a 6
0 a 7
7 b 8
8 b 9
%Final 3 6 9
"""

CD_PA = """\
%Alphabet c d
%Initial q0 1
%Final q0 0.5
q0 c q0 0.25
q0 d q0 0.25
"""

SELFLOOP_TO_3 = """\
%Alphabet a b
%Initial 0
%Final 1 2
0 a 1
0 b 2
1 a 1
1 b 1
"""


@pytest.fixture
def files(tmp_path):
    fa = tmp_path / "a.fa"
    fa.write_text(A2_FA)
    pa = tmp_path / "p.pa"
    pa.write_text(P_EXP_PA)
    return tmp_path, str(fa), str(pa)


class TestReduce:
    def test_prune_size(self, files, capsys):
        tmp, fa, pa = files
        out = str(tmp / "out.fa")
        rc = main(["reduce", "--type", "prune", "--label", "3",
                   "--mode", "size", "--param", "2",
                   "--input", fa, "--model", pa, "--output", out,
                   "--exact"])
        assert rc == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["input_states"] == "4"
        assert report["output_states"] == "2"
        assert float(report["error_bound"]) == pytest.approx(1 / 27,
                                                             abs=1e-12)
        assert float(report["exact_distance"]) <= float(report["error_bound"])
        reduced = parse_nfa(open(out).read())
        assert reduced.num_states == 2
        assert lang_upto(reduced, 4) == {("b",)}

    def test_ratio_param(self, files, capsys):
        tmp, fa, pa = files
        rc = main(["reduce", "--type", "prune", "--label", "3",
                   "--mode", "size", "--param", "0.5",
                   "--input", fa, "--model", pa])
        assert rc == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["output_states"] == "2"  # ceil(0.5 * 4) = 2

    @pytest.mark.parametrize("param", ["inf", "1e400"])
    def test_infinite_size_bound_exit_2(self, files, capsys, param):
        _, fa, pa = files
        rc = main(["reduce", "--type", "prune", "--label", "1",
                   "--mode", "size", "--param", param,
                   "--input", fa, "--model", pa])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("param", ["2.5", "inf", "1e400", "nan", "0",
                                       "-1"])
    def test_bad_size_param_exit_2(self, files, capsys, param):
        _, fa, pa = files
        rc = main(["reduce", "--type", "selfloop", "--label", "1",
                   "--mode", "size", f"--param={param}",
                   "--input", fa, "--model", pa])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: size mode needs an integer state bound >= 1\n")

    @pytest.mark.parametrize("param, expected", [
        ("0.5", "%Alphabet a b\n%Initial 0\n%Final 0\n0 a 0\n0 b 0\n"),
        ("3", SELFLOOP_TO_3),
        ("3.0", SELFLOOP_TO_3),
    ])
    def test_good_size_param(self, files, capsys, param, expected):
        # a ratio in (0, 1) scales the input's 4 states; 3 is a bound
        tmp, fa, pa = files
        out = tmp / "out.fa"
        rc = main(["reduce", "--type", "selfloop", "--label", "1",
                   "--mode", "size", "--param", param,
                   "--input", fa, "--model", pa, "--output", str(out)])
        assert rc == 0
        assert out.read_text() == expected

    def test_error_mode(self, files, capsys):
        tmp, fa, pa = files
        rc = main(["reduce", "--type", "prune", "--label", "3",
                   "--mode", "error", "--param", "0.05",
                   "--input", fa, "--model", pa])
        assert rc == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert float(report["error_bound"]) <= 0.05

    def test_deterministic_output(self, files, capsys):
        tmp, fa, pa = files
        out1, out2 = str(tmp / "o1.fa"), str(tmp / "o2.fa")
        for out in (out1, out2):
            assert main(["reduce", "--type", "selfloop", "--label", "2",
                         "--mode", "size", "--param", "3",
                         "--input", fa, "--model", pa,
                         "--output", out]) == 0
        capsys.readouterr()
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_exact_infeasible_under_cap(self, files, tmp_path, capsys):
        # the labels determinize the component (4 subsets), which fits a
        # cap of 4; the exact distance determinizes the union of input and
        # output (5 subsets), which does not; the manifest records what
        # stdout reports
        _, _, pa = files
        fa = tmp_path / "four.fa"
        fa.write_text("%Alphabet a b\n%Initial 0\n%Final 1 2 3\n"
                      "0 a 3\n0 b 2\n1 b 2\n2 b 1\n")
        manifest = tmp_path / "run.json"
        argv = ["reduce", "--type", "prune", "--label", "1",
                "--mode", "size", "--param", "2",
                "--input", str(fa), "--model", pa, "--exact"]
        assert main(argv + ["--det-cap", "4",
                            "--manifest", str(manifest)]) == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["exact_distance"] == "infeasible"
        data = json.loads(manifest.read_text())
        assert data["results"]["exact_distance"] == "infeasible"
        assert main(argv + ["--det-cap", "5"]) == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert float(report["exact_distance"]) >= 0.0

    def test_exact_selfloop_absorbs_accept_all_states(self, tmp_path, capsys):
        # a bound of 5 self-loops the first state of every rule; the labels
        # determinize the rules into 12 subsets, and so does the exact
        # distance once the four accept-all traps are absorbed (without
        # absorption its subsets record which traps a word has hit: 25)
        fa = tmp_path / "rules.fa"
        fa.write_text(SIGMA_RULES_FA)
        pa = tmp_path / "p.pa"
        pa.write_text(UNIFORM_ABC_PA)
        out = tmp_path / "reduced.fa"
        assert main(["reduce", "--type", "selfloop", "--label", "1",
                     "--mode", "size", "--param", "5", "--exact",
                     "--det-cap", "16", "--input", str(fa),
                     "--model", str(pa), "--output", str(out)]) == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["output_states"] == "5"
        reduced = parse_nfa(out.read_text())
        want = mp_distance(parse_pa(UNIFORM_ABC_PA),
                           parse_nfa(SIGMA_RULES_FA), reduced)
        assert float(report["exact_distance"]) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_size_mode_alphabet_mismatch_exit_2(self, tmp_path, capsys):
        # a zero-state input is within any bound, and is checked all the same
        fa = tmp_path / "zero.fa"
        fa.write_text("%Alphabet a b\n")
        pa = tmp_path / "cd.pa"
        pa.write_text(CD_PA)
        assert main(["reduce", "--type", "prune", "--label", "1",
                     "--mode", "size", "--param", "5",
                     "--input", str(fa), "--model", str(pa)]) == 2
        assert capsys.readouterr().err.startswith("error: alphabets differ")

    def test_manifest(self, files, capsys):
        tmp, fa, pa = files
        manifest = tmp / "run.json"
        rc = main(["reduce", "--type", "prune", "--label", "1",
                   "--mode", "size", "--param", "2",
                   "--input", fa, "--model", pa,
                   "--manifest", str(manifest)])
        assert rc == 0
        data = json.loads(manifest.read_text())
        assert data["command"] == ["reduce", "--type", "prune", "--label",
                                   "1", "--mode", "size", "--param", "2",
                                   "--input", fa, "--model", pa,
                                   "--manifest", str(manifest)]
        assert set(data["inputs"]) == {fa, pa}
        assert data["results"]["output_states"] == 2


class TestDistance:
    def test_identical(self, files, capsys):
        _, fa, pa = files
        assert main(["distance", fa, fa, "--model", pa]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "distance=0"

    def test_value(self, files, tmp_path, capsys):
        _, fa, pa = files
        universal = tmp_path / "u.fa"
        universal.write_text(
            "%Alphabet a b\n%Initial q\n%Final q\nq a q\nq b q\n")
        a_star = tmp_path / "astar.fa"
        a_star.write_text(
            "%Alphabet a b\n%Initial q0\n%Final q1\n"
            "q0 a q1\nq1 a q1\nq1 b q1\n")
        assert main(["distance", str(universal), str(a_star),
                     "--model", pa]) == 0
        out = capsys.readouterr().out
        assert float(out.split("=")[1]) == pytest.approx(2 / 3, abs=1e-9)

    def test_alphabet_mismatch_exit_2(self, files, tmp_path, capsys):
        _, fa, pa = files
        other = tmp_path / "c.fa"
        other.write_text("%Alphabet a c\n%Initial q\n%Final q\nq a q\n")
        assert main(["distance", fa, str(other), "--model", pa]) == 2

    def test_det_cap_exit_3(self, files, tmp_path, capsys):
        _, _, pa = files
        # ambiguous: determinization kicks in, and the cap of 1 is too small
        ambiguous = tmp_path / "amb.fa"
        ambiguous.write_text(
            "%Alphabet a b\n%Initial q0\n%Final q1 q2\n"
            "q0 a q1\nq0 a q2\nq1 b q0\n")
        assert main(["distance", str(ambiguous), str(ambiguous),
                     "--model", pa, "--det-cap", "1"]) == 3

    @pytest.mark.parametrize("cap", ["0", "-3", "x"])
    @pytest.mark.parametrize("ambiguous", [True, False])
    def test_det_cap_below_one_exit_2(self, files, tmp_path, capsys, cap,
                                      ambiguous):
        _, fa, pa = files
        if ambiguous:
            fa = tmp_path / "amb.fa"
            fa.write_text("%Alphabet a b\n%Initial q0\n%Final q1 q2\n"
                          "q0 a q1\nq0 a q2\nq1 b q0\n")
        with pytest.raises(SystemExit) as exc:
            main(["distance", str(fa), str(fa), "--model", pa,
                  "--det-cap", cap])
        assert exc.value.code == 2
        assert "error: argument --det-cap" in capsys.readouterr().err


class TestLabel:
    def test_tsv_output(self, files, capsys):
        _, fa, pa = files
        assert main(["label", "--type", "prune", "--label", "3",
                     "--input", fa, "--model", pa]) == 0
        rows = [line.split("\t")
                for line in capsys.readouterr().out.splitlines()]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert float(rows[1][1]) == pytest.approx(1 / 27, abs=1e-12)

    def test_selfloop_file_output(self, files, tmp_path, capsys):
        _, fa, pa = files
        out = tmp_path / "labels.tsv"
        assert main(["label", "--type", "selfloop", "--label", "3",
                     "--input", fa, "--model", pa,
                     "--output", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert float(rows[1][1]) == pytest.approx(8 / 27, abs=1e-12)

    @pytest.mark.parametrize("kind, variant", [("prune", "1"), ("prune", "2"),
                                               ("selfloop", "1"),
                                               ("selfloop", "2")])
    def test_label_det_cap_exit_3(self, files, tmp_path, capsys, kind,
                                  variant):
        # p1, p2 and sl1 determinize each component once, here into 2
        # subsets; sl2 builds each state's first-hit DFA, of at most 2
        _, _, pa = files
        ambiguous = tmp_path / "amb.fa"
        ambiguous.write_text(
            "%Alphabet a b\n%Initial q0\n%Final q1 q2\n"
            "q0 a q1\nq0 a q2\nq1 b q0\n")
        argv = ["label", "--type", kind, "--label", variant,
                "--input", str(ambiguous), "--model", pa]
        assert main(argv + ["--det-cap", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource cap: ")
        assert "Traceback" not in err
        assert main(argv + ["--det-cap", "2"]) == 0

    def test_prune3_det_cap_on_unambiguous_rule(self, files, tmp_path,
                                                capsys):
        # Sigma* a Sigma^6 is unambiguous, but the through-state acceptor
        # of state 0 is the whole rule, whose DFA has 2^7 subsets: p3
        # determinizes it, so the cap bounds p3 too
        _, _, pa = files
        fa = tmp_path / "sigma6.fa"
        fa.write_text("%Alphabet a b\n%Initial 0\n%Final 7\n0 a 0\n0 b 0\n"
                      "0 a 1\n" + "".join(f"{i} {s} {i + 1}\n"
                                         for i in range(1, 7) for s in "ab"))
        argv = ["label", "--type", "prune", "--label", "3",
                "--input", str(fa), "--model", pa]
        assert main(argv + ["--det-cap", "64"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("resource cap: ")
        assert "Traceback" not in captured.err
        assert main(argv + ["--det-cap", "1000"]) == 0
        assert capsys.readouterr().out == "".join(
            f"{q}\t0.029263831732967517\n" for q in range(8))

    @pytest.mark.parametrize("variant, rc", [("1", 3), ("2", 0), ("3", 3)])
    def test_selfloop_det_cap_bounds_first_hit_dfas(self, files, tmp_path,
                                                    capsys, variant, rc):
        # sl2 determinizes no component: its first-hit DFAs fit a cap of 4,
        # while sl1's component DFA and sl3's through-state DFA of state 0
        # have 9 subsets
        _, _, pa = files
        fa = tmp_path / "rules.fa"
        fa.write_text(SIGMA_AB_RULES_FA)
        assert main(["label", "--type", "selfloop", "--label", variant,
                     "--input", str(fa), "--model", pa,
                     "--det-cap", "4"]) == rc
        captured = capsys.readouterr()
        if rc == 0:
            rows = [line.split("\t") for line in captured.out.splitlines()]
            assert [int(r[0]) for r in rows] == list(range(10))
            assert captured.err == ""
        else:
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("resource cap: ")

    @pytest.mark.parametrize("fa_text", ["%Alphabet a b\n",
                                         "%Alphabet a b\n%Final 0\n"
                                         "0 a 1\n1 b 0\n"],
                             ids=["zero_states", "no_initial"])
    @pytest.mark.parametrize("kind", ["prune", "selfloop"])
    @pytest.mark.parametrize("variant", ["1", "2", "3"])
    def test_alphabet_mismatch_without_product_exit_2(self, tmp_path, capsys,
                                                      fa_text, kind, variant):
        # no product is built here, so the alphabets are checked up front
        fa = tmp_path / "a.fa"
        fa.write_text(fa_text)
        pa = tmp_path / "cd.pa"
        pa.write_text(CD_PA)
        assert main(["label", "--type", kind, "--label", variant,
                     "--input", str(fa), "--model", str(pa)]) == 2
        assert capsys.readouterr().err.startswith("error: alphabets differ")

    def test_manifest_records_det_cap(self, files, capsys):
        tmp, fa, pa = files
        manifest = tmp / "run.json"
        assert main(["label", "--type", "prune", "--label", "3",
                     "--input", fa, "--model", pa, "--det-cap", "5000",
                     "--manifest", str(manifest)]) == 0
        data = json.loads(manifest.read_text())
        assert data["config"] == {"type": "prune", "label": 3,
                                  "det_cap": 5000}

class TestLearnEval:
    def test_learn_round_trip(self, tmp_path, capsys):
        skeleton = tmp_path / "skel.fa"
        skeleton.write_text(
            "%Alphabet a b\n%Initial s0\n%Final s1\n"
            "s0 a s0\ns0 b s1\ns1 a s1\ns1 b s1\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\na\nb\n")
        out = tmp_path / "model.pa"
        assert main(["learn", "--input", str(skeleton),
                     "--corpus", str(corpus), "--output", str(out)]) == 0
        pa = parse_pa(out.read_text())
        assert pa.row("a", 0)[0] == pytest.approx(2 / 5)
        assert pa.final[0] == pytest.approx(1 / 5)
        assert pa.final[1] == 1.0
        # 17 significant digits round-trip losslessly
        assert serialize_pa(parse_pa(out.read_text())) == out.read_text()

    def test_learn_incomplete_needs_flag(self, tmp_path, capsys):
        skeleton = tmp_path / "skel.fa"
        skeleton.write_text(
            "%Alphabet a b\n%Initial s0\n%Final s1\ns0 a s1\n")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a\n")
        out = tmp_path / "model.pa"
        assert main(["learn", "--input", str(skeleton),
                     "--corpus", str(corpus), "--output", str(out)]) == 2
        assert main(["learn", "--input", str(skeleton), "--complete",
                     "--corpus", str(corpus), "--output", str(out)]) == 0

    def test_eval(self, files, tmp_path, capsys):
        tmp, fa, pa = files
        reduced = tmp_path / "red.fa"
        assert main(["reduce", "--type", "selfloop", "--label", "3",
                     "--mode", "size", "--param", "3",
                     "--input", fa, "--model", pa,
                     "--output", str(reduced)]) == 0
        capsys.readouterr()
        sample = tmp_path / "sample.txt"
        sample.write_text("a b\na a\nb\n")
        assert main(["eval", fa, str(reduced),
                     "--sample", str(sample)]) == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["mismatches"] == "1"
        assert report["total"] == "3"
        assert float(report["ratio"]) == pytest.approx(1 / 3)

    def test_eval_foreign_symbol_exit_2(self, files, tmp_path, capsys):
        _, fa, _ = files
        sample = tmp_path / "sample.txt"
        # the run dies on "b" before it reaches "z"
        sample.write_text("a b\nb z\n")
        assert main(["eval", fa, fa, "--sample", str(sample)]) == 2
        assert "error: symbol 'z' not in alphabet" in capsys.readouterr().err

    def test_eval_alphabet_mismatch_exit_2(self, files, tmp_path, capsys):
        _, fa, _ = files
        other = tmp_path / "c.fa"
        other.write_text("%Alphabet a c\n%Initial q\n%Final q\nq a q\n")
        sample = tmp_path / "sample.txt"
        sample.write_text("a\n")
        assert main(["eval", fa, str(other), "--sample", str(sample)]) == 2
        assert capsys.readouterr().err == (
            "error: alphabets differ: 2 vs 2 symbols, 2 in only one: "
            "'b', 'c'\n")

    def test_eval_det_cap(self, files, tmp_path, capsys, monkeypatch):
        _, fa, _ = files
        ambiguous = tmp_path / "amb.fa"
        ambiguous.write_text(
            "%Alphabet a b\n%Initial q0\n%Final q1 q2\n"
            "q0 a q1\nq0 a q2\nq1 b q0\n")
        sample = tmp_path / "sample.txt"
        sample.write_text("a b\nb\na\na a\n")
        argv = ["eval", str(ambiguous), fa, "--sample", str(sample)]
        # the row of {q0} reaches the subset {q1, q2}, past a cap of 1
        with monkeypatch.context() as m:
            m.setattr(traffic, "DEFAULT_DET_CAP", 1)
            assert main(argv) == 3
        assert "resource cap:" in capsys.readouterr().err
        assert main(argv) == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        amb, a = parse_nfa(ambiguous.read_text()), parse_nfa(A2_FA)
        words = [tuple(line.split()) for line in sample.read_text()
                 .splitlines()]
        assert report["mismatches"] == str(
            sum(accepts(amb, w) != accepts(a, w) for w in words))
        assert report["mismatches"] == "3"
        assert report["total"] == "4"

    def test_eval_det_cap_counts_pairs(self, files, tmp_path, capsys,
                                       monkeypatch):
        _, fa, _ = files
        ambiguous = tmp_path / "amb.fa"
        ambiguous.write_text(
            "%Alphabet a b\n%Initial q0\n%Final q1 q2\n"
            "q0 a q1\nq0 a q2\nq1 b q0\n")
        sample = tmp_path / "sample.txt"
        sample.write_text("a b\nb\na\na a\n")
        argv = ["eval", str(ambiguous), fa, "--sample", str(sample)]
        # the sample reaches 4 pairs of subsets
        monkeypatch.setattr(traffic, "DEFAULT_DET_CAP", 4)
        assert main(argv) == 0
        assert "mismatches=3" in capsys.readouterr().out.splitlines()
        monkeypatch.setattr(traffic, "DEFAULT_DET_CAP", 3)
        assert main(argv) == 3
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == ""
        assert len(err) == 1 and err[0].startswith("resource cap: ")

    def test_eval_binary_sample(self, tmp_path, capsys):
        byte_fa = tmp_path / "bytes.fa"
        byte_fa.write_text("%Initial q0\n%Final q1\nq0 0x61 q1\n")
        sample = tmp_path / "sample.bin"
        sample.write_bytes(b"\x01\x00\x00\x00" + b"a"
                           + b"\x02\x00\x00\x00" + b"ab")
        assert main(["eval", str(byte_fa), str(byte_fa),
                     "--sample", str(sample), "--format", "bin"]) == 0
        report = dict(line.split("=", 1)
                      for line in capsys.readouterr().out.splitlines())
        assert report["ratio"] == "0"

    def test_learn_binary_corpus_matches_text_tokens(self, tmp_path):
        skeleton = tmp_path / "skel.fa"
        skeleton.write_text(
            "%Alphabet 0x61 0x62\n%Initial s0\n%Final s0 s1\n"
            "s0 0x61 s1\ns0 0x62 s0\ns1 0x61 s1\ns1 0x62 s0\n")
        words = [b"aaa", b"bab", b"ab", b"", b"bbba"]
        corpus_bin = tmp_path / "corpus.bin"
        corpus_bin.write_bytes(b"".join(len(w).to_bytes(4, "little") + w
                                        for w in words))
        corpus_txt = tmp_path / "corpus.txt"
        corpus_txt.write_text("".join(" ".join(f"0x{b:02X}" for b in w) + "\n"
                                      for w in words))
        out_bin, out_txt = tmp_path / "bin.pa", tmp_path / "txt.pa"
        assert main(["learn", "--input", str(skeleton), "--format", "bin",
                     "--corpus", str(corpus_bin),
                     "--output", str(out_bin)]) == 0
        assert main(["learn", "--input", str(skeleton),
                     "--corpus", str(corpus_txt),
                     "--output", str(out_txt)]) == 0
        assert out_bin.read_bytes() == out_txt.read_bytes()

    @pytest.mark.parametrize("command, alphabet_name", [
        ("learn", "skeleton alphabet"), ("eval", "alphabet")])
    def test_foreign_byte_in_binary_corpus_exit_2(self, tmp_path, capsys,
                                                  command, alphabet_name):
        fa = tmp_path / "ab.fa"
        fa.write_text("%Alphabet 0x61 0x62\n%Initial s0\n%Final s0\n"
                      "s0 0x61 s0\ns0 0x62 s0\n")
        corpus = tmp_path / "corpus.bin"
        corpus.write_bytes(b"\x02\x00\x00\x00ab" + b"\x03\x00\x00\x00bca")
        argv = (["learn", "--input", str(fa), "--corpus", str(corpus),
                 "--output", str(tmp_path / "model.pa")]
                if command == "learn" else
                ["eval", str(fa), str(fa), "--sample", str(corpus)])
        assert main([*argv, "--format", "bin"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: symbol 99 not in {alphabet_name}\n"


@pytest.mark.parametrize("argv, config, inputs", [
    (["reduce", "--type", "prune", "--label", "3", "--mode", "size",
      "--param", "2", "--input", "a.fa", "--model", "p.pa", "--exact",
      "--output", "out.fa"],
     {"type", "label", "mode", "param", "exact", "det_cap"},
     {"a.fa", "p.pa"}),
    (["distance", "a.fa", "b.fa", "--model", "p.pa"],
     {"det_cap"}, {"a.fa", "b.fa", "p.pa"}),
    (["label", "--type", "selfloop", "--label", "2", "--input", "a.fa",
      "--model", "p.pa", "--output", "out.tsv"],
     {"type", "label", "det_cap"}, {"a.fa", "p.pa"}),
    (["label", "--type", "selfloop", "--label", "2", "--input", "a.fa",
      "--model", "p.pa"],
     {"type", "label", "det_cap"}, {"a.fa", "p.pa"}),
    (["learn", "--input", "skel.fa", "--complete", "--corpus", "words.txt",
      "--output", "out.pa"],
     {"complete", "format"}, {"skel.fa", "words.txt"}),
    (["eval", "a.fa", "b.fa", "--sample", "words.txt"],
     {"format"}, {"a.fa", "b.fa", "words.txt"}),
], ids=["reduce", "distance", "label", "label-stdout", "learn", "eval"])
def test_manifest_holds_the_stdout_report(tmp_path, monkeypatch, capsys,
                                          argv, config, inputs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.fa").write_text(A2_FA)
    (tmp_path / "b.fa").write_text(SELFLOOP_TO_3)
    (tmp_path / "p.pa").write_text(P_EXP_PA)
    (tmp_path / "skel.fa").write_text(
        "%Alphabet a b\n%Initial s0\n%Final s1\ns0 a s1\n")
    (tmp_path / "words.txt").write_text("a b\na\n\nb b a\n")
    assert main([*argv, "--manifest", "run.json"]) == 0
    out = capsys.readouterr().out
    data = json.loads((tmp_path / "run.json").read_text())
    assert all(key.endswith("_time_s") for key in data["timings"])
    assert set(data["config"]) == config
    assert data["inputs"] == {
        path: hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        for path in inputs}
    recorded = {**data["results"], **data["timings"]}
    if argv[0] == "label":
        # one label per TSV line, timed like reduce's labelling
        to_stdout = "--output" not in argv
        tsv = out if to_stdout else (tmp_path / "out.tsv").read_text()
        lines = tsv.splitlines()
        assert [line.split("\t")[0] for line in lines] == [
            str(q) for q in range(len(lines))]
        assert data["results"]["states"] == len(lines)
        assert "label_time_s" in data["timings"]
        if to_stdout:
            # stdout is the TSV alone, so the report is in the manifest only
            assert set(recorded) == {"states", "label_time_s"}
            return
    report = dict(line.split("=", 1) for line in out.splitlines())
    assert set(recorded) == set(report)
    for key, value in recorded.items():
        if isinstance(value, float):
            assert float(report[key]) == value, key
        else:
            assert report[key] == str(value), key


class TestExitCodes:
    def test_missing_file(self, files, capsys):
        _, _, pa = files
        assert main(["reduce", "--type", "prune", "--label", "1",
                     "--mode", "size", "--param", "2",
                     "--input", "/nonexistent.fa", "--model", pa]) == 2

    def test_bad_model(self, files, tmp_path, capsys):
        _, fa, _ = files
        bad = tmp_path / "bad.pa"
        bad.write_text("%Alphabet a b\n%Initial q0 0.5\n%Final q0 1.0\n")
        assert main(["distance", fa, fa, "--model", str(bad)]) == 2

    @pytest.mark.parametrize("model, problem", [
        ("%Final 0 1.0005e-9\n0 a 0 0.999999999999\n",
         "words have total probability"),
        ("%Final 0 1e-10\n0 a 0 1.0\n", "spectral radius >= 1"),
        ("%Final 0 0.5\n0 a 0 0.25\n0 a 0 0.5\n", "line 5: '0 a 0' given "
                                                 "twice"),
    ], ids=["mass-1000", "singular", "repeated"])
    @pytest.mark.parametrize("command", [
        ["label", "--type", "prune", "--label", "1"],
        ["label", "--type", "selfloop", "--label", "2"],
        ["distance"],
    ], ids=["prune-1", "selfloop-2", "distance"])
    def test_model_passing_state_checks_exit_2(self, tmp_path, capsys,
                                               model, problem, command):
        # every state accepts or leaves with mass 1 to within 1e-9 (with
        # the repeated line, once its last weight is kept), yet the words
        # of a* would weigh far more than 1 or need a singular solve
        fa = tmp_path / "a-star.fa"
        fa.write_text("%Alphabet a b\n%Initial 0\n%Final 0\n0 a 0\n")
        empty = tmp_path / "empty.fa"
        empty.write_text("%Alphabet a b\n%Initial 0\n")
        pa = tmp_path / "bad.pa"
        pa.write_text("%Alphabet a b\n%Initial 0 1\n" + model)
        argv = ([*command, "--input", str(fa)] if command[0] == "label"
                else [*command, str(fa), str(empty)])
        assert main([*argv, "--model", str(pa)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err
