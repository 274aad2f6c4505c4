import argparse
import contextlib
import io
import json
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alarm, package_env
from karpelevic import realize as realize_module
from karpelevic.algebra import StochMatrix, _integer, charpoly_exact
from karpelevic.boundary import _Branch
from karpelevic.cli import _build_parser, main
from karpelevic.farey import ArcType, arc_params
from karpelevic.itopoly import reduced_ito
from karpelevic.realize import build_sparsest, type0

F = Fraction

GOLDEN = Path(__file__).parent / "golden"

ARC12 = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
ARC15 = arc_params(ArcType.TYPE_III, q=4, d=3, y=3)
ARC12_JSON = json.dumps(ARC12.to_json())
ARC15_JSON = json.dumps(ARC15.to_json())


def _ones_as_true(m: StochMatrix) -> dict:
    """m's JSON with every entry 1 written as `true`."""
    data = m.to_json()
    return {**data, "entries": [[True if e == "1" else e for e in row] for row in data["entries"]]}


# Read as 1, `true` would make these verify against ARC12_JSON at 1/3 and
# ARC15_JSON at 1/2.
BOOL_MATRIX12 = _ones_as_true(build_sparsest(ARC12, F(1, 3), (0, 3, 3)))
BOOL_MATRIX15 = _ones_as_true(build_sparsest(ARC15, F(1, 2), (0, 0, 3)))
# The order-5 arc 2/5-1/2 is Type III with y = 1, not Type I; the order-15
# arc 1/4-4/15 has y = 3, not 1.
MISCLASSIFIED_ARC5 = json.dumps({"n": 5, "p": 1, "q": 2, "r": 2, "s": 5, "d": 2, "type": "I"})
MISCLASSIFIED_ARC15 = json.dumps({**json.loads(ARC15_JSON), "y": 1})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArcs:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "arcs", "4")
        assert code == 0
        assert "0/1-1/4  Type0" in out
        assert "1/4-1/3  TypeI" in out
        assert "1/3-1/2  TypeII" in out and "z=1" in out

    def test_single_row_order2(self, capsys):
        code, out, _ = run(capsys, "arcs", "2")
        rows = out.strip().splitlines()
        assert code == 0 and len(rows) == 2
        assert all("Type0" in r for r in rows)

    def test_json(self, capsys):
        code, out, _ = run(capsys, "arcs", "12", "--json")
        data = json.loads(out)
        assert code == 0
        assert {"n": 12, "p": 1, "q": 4, "r": 2, "s": 9, "d": 3, "type": "II", "z": 3} in data

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["arcs"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, golden", [
        (["arcs", "12"], "arcs_12.txt"),
        (["arcs", "12", "--json"], "arcs_12.json"),
    ], ids=["table", "json"])
    def test_order12_output_byte_for_byte(self, capsys, argv, golden):
        # The README command; the golden files hold its full stdout.
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / golden).read_text()


class TestRealize:
    def test_type2_json(self, capsys):
        code, out, _ = run(
            capsys, "realize", "II", "--q", "4", "--d", "3", "--z", "3",
            "--alpha", "1/3", "--composition", "0,3,3", "--emit", "json",
        )
        assert code == 0
        m = StochMatrix.from_json(json.loads(out))
        expected = reduced_ito(arc_params(ArcType.TYPE_II, q=4, d=3, z=3), F(1, 3)).poly
        assert charpoly_exact(m) == expected

    def test_type0(self, capsys):
        code, out, _ = run(capsys, "realize", "0", "--n", "5", "--alpha", "1/2")
        m = StochMatrix.from_json(json.loads(out))
        assert code == 0 and m.n == 5 and m.entries[0][0] == F(1, 2)

    def test_type3_dot(self, capsys):
        code, out, _ = run(
            capsys, "realize", "III", "--q", "4", "--d", "3", "--y", "3",
            "--alpha", "1/2", "--composition", "1,1,1", "--emit", "dot",
        )
        assert code == 0
        assert out.startswith("digraph")
        # back edges from the split rows 5, 10, 15
        for src, dst in [(5, 2), (10, 7), (15, 12)]:
            assert f"{src} -> {dst}" in out

    def test_type2_dot_golden(self, capsys):
        # The whole DOT output of the order-12 realization (0, 3, 3) at 1/3,
        # byte for byte: header, one line per vertex, then the edges in row
        # order with their exact weights, 1-based.
        code, out, err = run(
            capsys, "realize", "II", "--q", "4", "--d", "3", "--z", "3",
            "--alpha", "1/3", "--composition", "0,3,3", "--emit", "dot",
        )
        assert (code, err) == (0, "")
        assert out == textwrap.dedent(
            """\
            digraph gamma {
              rankdir=LR;
              1;
              2;
              3;
              4;
              5;
              6;
              7;
              8;
              9;
              10;
              11;
              12;
              1 -> 2 [label="2/3"];
              1 -> 5 [label="1/3"];
              2 -> 3 [label="1"];
              3 -> 4 [label="1"];
              4 -> 1 [label="1"];
              5 -> 6 [label="1"];
              6 -> 7 [label="1"];
              7 -> 8 [label="1"];
              8 -> 5 [label="2/3"];
              8 -> 12 [label="1/3"];
              9 -> 10 [label="1"];
              10 -> 11 [label="1"];
              11 -> 1 [label="1/3"];
              11 -> 12 [label="2/3"];
              12 -> 9 [label="1"];
            }
            """
        )

    def test_type1_alphas(self, capsys):
        code, out, _ = run(
            capsys, "realize", "I", "--n", "5", "--q", "4",
            "--alpha", "1/6", "--alphas", "1/2,1/3",
        )
        assert code == 0
        m = StochMatrix.from_json(json.loads(out))
        assert m.entries[0][1] == F(1, 2) and m.entries[1][2] == F(1, 3)

    def test_inconsistent_alphas_rejected(self, capsys):
        code, _, err = run(
            capsys, "realize", "I", "--n", "5", "--q", "4",
            "--alpha", "1/2", "--alphas", "1/2,1/3",
        )
        assert code == 1 and "multiply" in err

    def test_float_alpha_rejected(self, capsys):
        code, _, err = run(capsys, "realize", "0", "--n", "3", "--alpha", "0.5")
        assert code == 1 and "rational" in err

    @pytest.mark.parametrize("alpha", ["abc", "1/x"])
    def test_non_numeric_alpha_rejected(self, capsys, alpha):
        code, _, err = run(capsys, "realize", "0", "--n", "5", "--alpha", alpha)
        assert code == 1 and "rational" in err

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "realize", "0", "--n", "3", "--alpha", "3/2")
        assert code == 1 and "between 0 and 1" in err

    def test_zero_denominator_exit_1(self, capsys):
        code, out, err = run(capsys, "realize", "0", "--n", "5", "--alpha", "1/0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "zero denominator" in err


class TestRationalFlagErrors:
    """A malformed or out-of-range exact rational names the flag it came from."""

    # The verbs that build a matrix take alpha in (0, 1); verify and probe
    # check against the arc polynomial, which takes alpha in [0, 1].
    BUILDERS = (
        ["realize", "0", "--n", "5"],
        ["realize", "I", "--n", "5", "--q", "4"],
        ["realize", "II", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3"],
        ["realize", "III", "--q", "4", "--d", "3", "--y", "3", "--composition", "0,0,3"],
        ["enumerate", "--type", "II", "--q", "4", "--d", "3", "--z", "3"],
        ["augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3"],
    )
    CHECKERS = (["verify"], ["probe"])

    def _argvs(self, tmp_path, verbs):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(build_sparsest(ARC12, F(1, 3), (0, 3, 3)).to_json()))
        return [argv if len(argv) > 1 else argv + ["--matrix", str(f), "--arc", ARC12_JSON]
                for argv in verbs]

    @pytest.mark.parametrize("value, reason", [
        ("abc", "not an exact rational literal: 'abc'"),
        ("0.5", "not an exact rational literal: '0.5'"),
        ("1/0", "zero denominator: '1/0'"),
        ("1_0/3_0", "not an exact rational literal: '1_0/3_0'"),  # was 1/3
        ("\u0661/\u0663", "not an exact rational literal: '\u0661/\u0663'"),  # Arabic-Indic 1/3
    ])
    def test_alpha_on_every_verb(self, capsys, tmp_path, value, reason):
        for argv in self._argvs(tmp_path, self.BUILDERS + self.CHECKERS):
            code, out, err = run(capsys, *argv, "--alpha", value)
            assert (code, out, err) == (1, "", f"error: --alpha: {reason}\n"), argv

    @pytest.mark.parametrize("value", ["0", "1", "3/2", "-1/2"])
    def test_alpha_range_on_building_verbs(self, capsys, tmp_path, value):
        reason = f"parameter must lie strictly between 0 and 1, got {value}"
        for argv in self._argvs(tmp_path, self.BUILDERS):
            code, out, err = run(capsys, *argv, f"--alpha={value}")
            assert (code, out, err) == (1, "", f"error: --alpha: {reason}\n"), argv

    @pytest.mark.parametrize("value", ["3/2", "-1/2"])
    def test_alpha_range_on_checking_verbs(self, capsys, tmp_path, value):
        reason = f"parameter must lie in [0, 1], got {value}"
        for argv in self._argvs(tmp_path, self.CHECKERS):
            code, out, err = run(capsys, *argv, f"--alpha={value}")
            assert (code, out, err) == (1, "", f"error: --alpha: {reason}\n"), argv

    @pytest.mark.parametrize("value, reason", [
        ("1/2,x", "not an exact rational literal: 'x'"),
        ("1/3,", "not an exact rational literal: ''"),
        ("1/0,1/6", "zero denominator: '1/0'"),
    ])
    def test_alphas(self, capsys, value, reason):
        code, out, err = run(
            capsys, "realize", "I", "--n", "5", "--q", "4", "--alpha", "1/6", "--alphas", value,
        )
        assert (code, out, err) == (1, "", f"error: --alphas: {reason}\n")


class TestFlagErrors:
    """A wrong --alphas, --composition or --samples value is reported against its flag."""

    @pytest.mark.parametrize("samples", ["1", "0", "-3"])
    def test_samples(self, capsys, samples):
        code, out, err = run(capsys, "region", "3", "--samples", samples)
        assert (code, out, err) == (1, "", "error: --samples: need at least 2 samples\n")

    def test_alphas_off_type1(self, capsys):
        code, out, err = run(
            capsys, "realize", "II", "--q", "4", "--d", "3", "--z", "3",
            "--alpha", "1/3", "--alphas", "1/3",
        )
        assert (code, out, err) == (1, "", "error: --alphas applies to Type I arcs only\n")

    @pytest.mark.parametrize("value, reason", [
        ("3/2,1/3,1,1", "weights must lie in (0, 1], got 3/2"),
        ("1/2,1", "need exactly n+1-q = 4 weights, got 2"),
    ])
    def test_alphas_weights(self, capsys, value, reason):
        code, out, err = run(
            capsys, "realize", "I", "--n", "7", "--q", "4", "--alpha", "1/2", "--alphas", value,
        )
        assert (code, out, err) == (1, "", f"error: --alphas: {reason}\n")

    @pytest.mark.parametrize("argv, reason", [
        (["realize", "0", "--n", "5", "--alpha", "1/2", "--composition", "1"],
         "parts must lie in 0..0"),
        (["realize", "II", "--q", "4", "--d", "3", "--z", "3", "--alpha", "1/3", "--composition", "0,1"],
         "the arc takes a composition of 6 into 3 parts below 4, got (0,1)"),
        (["realize", "III", "--q", "4", "--d", "3", "--y", "3", "--alpha", "1/3", "--composition", "x"],
         "expected comma-separated integers, got 'x'"),
        (["augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,4"],
         "parts must lie in 0..3"),
        (["augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "1,1,1"],
         "the arc takes a composition of 6 into 3 parts below 4, got (1,1,1)"),
        (["augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,,3"],
         "expected comma-separated integers, got '0,,3'"),
    ])
    def test_composition(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: --composition: {reason}\n")


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--type", "II", "--q", "4", "--d", "3", "--z", "3")
        assert code == 0
        assert "4 sparsest class(es)" in out

    def test_with_matrices(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--type", "III", "--q", "4", "--d", "3", "--y", "3",
            "--alpha", "1/2",
        )
        data = json.loads(out)
        assert code == 0 and len(data) == 4
        assert all(set(e) == {"composition", "matrix"} for e in data)
        assert [e["composition"] for e in data] == [[0, 0, 3], [0, 1, 2], [0, 2, 1], [1, 1, 1]]


ENUMERATE_FLAGS = {
    "0": {"--n": "5"},
    "I": {"--n": "5", "--q": "3"},
    "II": {"--q": "4", "--d": "3", "--z": "3"},
    "III": {"--q": "4", "--d": "3", "--y": "3"},
}


# What each verb needs besides the arc's own flags.
VERB_ARGV = {
    "enumerate": lambda tag: ["enumerate", "--type", tag, "--json"],
    "realize": lambda tag: ["realize", tag, "--alpha", "1/3"]
    + {"II": ["--composition", "0,3,3"], "III": ["--composition", "0,0,3"]}.get(tag, []),
}
MISSING_FLAG_CASES = [(tag, flag) for tag, flags in ENUMERATE_FLAGS.items() for flag in flags]


class TestRequiredFlags:
    """Every verb that reads an arc from flags names the missing ones alike."""

    @staticmethod
    def check_missing_flag(capsys, verb, tag, flag):
        argv = [x for key, value in ENUMERATE_FLAGS[tag].items() if key != flag for x in (key, value)]
        code, out, err = run(capsys, *VERB_ARGV[verb](tag), *argv)
        assert (code, out, err) == (1, "", f"error: Type {tag} needs {flag[2:]}\n")

    @staticmethod
    def check_complete_flags(capsys, verb, tag):
        argv = [x for item in ENUMERATE_FLAGS[tag].items() for x in item]
        code, out, _ = run(capsys, *VERB_ARGV[verb](tag), *argv)
        assert code == 0 and json.loads(out)

    @pytest.mark.parametrize("tag, flag", MISSING_FLAG_CASES)
    def test_missing_flag_is_named(self, capsys, tag, flag):
        self.check_missing_flag(capsys, "enumerate", tag, flag)

    @pytest.mark.parametrize("tag", list(ENUMERATE_FLAGS))
    def test_complete_flags(self, capsys, tag):
        self.check_complete_flags(capsys, "enumerate", tag)

    @pytest.mark.parametrize("tag, flag", MISSING_FLAG_CASES)
    def test_realize_missing_flag_is_named(self, capsys, tag, flag):
        self.check_missing_flag(capsys, "realize", tag, flag)

    @pytest.mark.parametrize("tag", list(ENUMERATE_FLAGS))
    def test_realize_complete_flags(self, capsys, tag):
        self.check_complete_flags(capsys, "realize", tag)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["realize", "II", "--q", "4", "--d", "3", "--z", "3", "--n", "99", "--y", "1",
              "--alpha", "1/3", "--composition", "0,3,3"], "Type II does not take n and y"),
            (["realize", "I", "--n", "5", "--q", "3", "--d", "9", "--z", "2", "--alpha", "1/2"],
             "Type I does not take d and z"),
            (["enumerate", "--type", "III", "--q", "4", "--d", "3", "--y", "3", "--z", "1"],
             "Type III does not take z"),
        ],
    )
    def test_unused_flags_are_named(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


INT, REQUIRED, TYPES = _integer, True, ["0", "I", "II", "III"]
ARC_FLAGS = {f"--{name}": ("Store", INT, None, None, False) for name in "nqdzy"}
EMIT = {"--emit": ("Store", None, ["json", "dot", "both"], "json", False)}
CHECKED = {flag: ("Store", None, None, None, REQUIRED) for flag in ("--matrix", "--arc", "--alpha")}
# Each verb's arguments: name -> (action, type, choices, default, required).
FLAG_TABLE = {
    "arcs": {"n": ("Store", INT, None, None, REQUIRED), "--json": ("StoreTrue", None, None, False, False)},
    "realize": {
        "type": ("Store", None, TYPES, None, REQUIRED),
        **ARC_FLAGS,
        "--alpha": ("Store", None, None, None, REQUIRED),
        "--composition": ("Store", None, None, None, False),
        "--alphas": ("Store", None, None, None, False),
        **EMIT,
    },
    "enumerate": {
        "--type": ("Store", None, TYPES, None, REQUIRED),
        **ARC_FLAGS,
        "--alpha": ("Store", None, None, None, False),
        "--json": ("StoreTrue", None, None, False, False),
    },
    "verify": CHECKED,
    "region": {
        "n": ("Store", INT, None, None, REQUIRED),
        "--samples": ("Store", INT, None, 512, False),
        "--svg": ("Store", None, None, None, False),
        "--csv-dir": ("Store", None, None, None, False),
        "--json": ("StoreTrue", None, None, False, False),
    },
    "augment": {
        **{flag: ("Store", INT, None, None, REQUIRED) for flag in ("--q", "--d", "--z")},
        "--composition": ("Store", None, None, None, REQUIRED),
        "--add": ("Append", None, None, None, False),
        "--alpha": ("Store", None, None, None, False),
        "--param": ("Append", None, None, None, False),
        **EMIT,
    },
    "probe": CHECKED,
}


class TestIntegerLiterals:
    """Every integer on the command line is an optional sign and ASCII
    digits, the rule of each side of an exact rational's "/"."""

    @pytest.mark.parametrize("argv, flag, text", [
        (["arcs", "\u0665"], "n", "\u0665"),
        (["arcs", "1_0"], "n", "1_0"),
        (["arcs", "abc"], "n", "abc"),
        (["region", "\u0664"], "n", "\u0664"),
        (["region", "4", "--samples", "1_6"], "--samples", "1_6"),
        (["realize", "II", "--q", "\u0664", "--d", "3", "--z", "3", "--alpha", "1/3",
          "--composition", "0,3,3"], "--q", "\u0664"),
        (["augment", "--q", "4", "--d", "3", "--z", "3_0", "--composition", "0,3,3"], "--z", "3_0"),
    ])
    def test_flag_usage_error_exit_2(self, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: argument {flag}: invalid int value: {text!r}\n")

    @pytest.mark.parametrize("text", ["\u0660,\u0663,\u0663", "0,3_0,3", "0,3,", "0,+-3,3"])
    def test_composition_exit_1(self, capsys, text):
        code, out, err = run(
            capsys, "realize", "II", "--q", "4", "--d", "3", "--z", "3", "--alpha", "1/3",
            "--composition", text,
        )
        message = f"--composition: expected comma-separated integers, got {text!r}"
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("text", ["\u0662,\u0666", "2_0,6", "2,6,7", "2"])
    def test_add_exit_1(self, capsys, text):
        code, out, err = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
            "--add", text,
        )
        assert (code, out, err) == (1, "", f"error: --add expects 'src,dst' (1-based), got {text!r}\n")

    def test_sign_and_outer_space_read_as_before(self, capsys):
        # int() took these too; the same matrix and connectors come out.
        plain = run(capsys, "realize", "II", "--q", "4", "--d", "3", "--z", "3",
                    "--alpha", "1/3", "--composition", "0,3,3")
        spaced = run(capsys, "realize", "II", "--q", " +4", "--d", "03", "--z", "3\n",
                     "--alpha", "1/3", "--composition", " 0, +3,3 ")
        assert plain == spaced and plain[0] == 0
        plain = run(capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
                    "--add", "2,6")
        spaced = run(capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
                     "--add", " +2, 06")
        assert plain == spaced and plain[0] == 0
        assert run(capsys, "arcs", " +05") == run(capsys, "arcs", "5")


class TestFlagTable:
    def test_each_verb_keeps_its_flags(self):
        """Flags shared through parent parsers keep, verb by verb, their
        action, type, choices, default and required-ness.  Every integer
        flag is read by ``algebra._integer`` itself, not by ``int``."""
        parser = _build_parser()
        (verbs,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        table = {
            verb: {
                (a.option_strings or [a.dest])[0]: (
                    type(a).__name__.strip("_").removesuffix("Action"),
                    a.type, a.choices, a.default, a.required,
                )
                for a in sub._actions if a.dest != "help"
            }
            for verb, sub in verbs.items()
        }
        assert table == FLAG_TABLE


class TestClosedPipe:
    def test_reader_closing_after_one_line(self):
        # The order-200 table, about 600 KB, outgrows the pipe buffer, so the
        # verb is still printing when the reader closes its end.
        entry = "import sys; from karpelevic.cli import main; sys.exit(main())"
        proc = subprocess.Popen(
            [sys.executable, "-c", entry, "arcs", "200"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(), text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert (first, err) == ("0/1-1/200  Type0  q=1 s=200 d=200 deg=200\n", "")


class TestVerifyRoundTrip:
    def test_pipe(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "realize", "II", "--q", "4", "--d", "3", "--z", "3",
            "--alpha", "1/3", "--composition", "0,3,3",
        )
        matrix_file = tmp_path / "a1.json"
        matrix_file.write_text(out)
        code, out, _ = run(
            capsys, "verify", "--matrix", str(matrix_file), "--arc", ARC12_JSON, "--alpha", "1/3",
        )
        assert code == 0
        assert out.startswith("OK")
        assert "cycle structure ok" in out

    def test_round_trip_all_constructors(self, capsys, tmp_path):
        cases = [
            (["realize", "0", "--n", "4", "--alpha", "1/3"],
             json.dumps(arc_params(ArcType.TYPE_0, n=4).to_json()), "1/3"),
            (["realize", "I", "--n", "5", "--q", "4", "--alpha", "1/6"],
             json.dumps(arc_params(ArcType.TYPE_I, n=5, q=4).to_json()), "1/6"),
            (["realize", "II", "--q", "4", "--d", "3", "--z", "3", "--alpha", "1/2",
              "--composition", "2,2,2"], ARC12_JSON, "1/2"),
            (["realize", "III", "--q", "4", "--d", "3", "--y", "3", "--alpha", "1/2",
              "--composition", "0,1,2"], ARC15_JSON, "1/2"),
        ]
        for argv, arc_json, alpha in cases:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            f = tmp_path / "m.json"
            f.write_text(out)
            code, out, _ = run(capsys, "verify", "--matrix", str(f), "--arc", arc_json, "--alpha", alpha)
            assert code == 0 and out.startswith("OK")

    def test_failing_verify_exit_1(self, capsys, tmp_path):
        code, out, _ = run(capsys, "realize", "0", "--n", "12", "--alpha", "1/3")
        f = tmp_path / "m.json"
        f.write_text(out)
        code, out, _ = run(capsys, "verify", "--matrix", str(f), "--arc", ARC12_JSON, "--alpha", "1/3")
        assert code == 1 and out.startswith("FAIL")

    def test_dense_mismatch_fails_without_enumerating_cycles(self, capsys, tmp_path):
        # The uniform matrix's complete digraph has too many cycles to list
        # inside the alarm; its polynomial fails first.
        f = tmp_path / "m.json"
        f.write_text(json.dumps(StochMatrix([[F(1, 12)] * 12 for _ in range(12)]).to_json()))
        with alarm(5.0, "verify enumerated the cycles of a dense matrix"):
            code, out, _ = run(capsys, "verify", "--matrix", str(f), "--arc", ARC12_JSON, "--alpha", "1/3")
        assert code == 1 and out == "FAIL (charpoly MISMATCH; cycle structure not checked)\n"


class TestMalformedJson:
    """Wrong JSON shapes or types end in `error: ...` and exit 1, not a traceback."""

    GOOD_MATRIX = {"n": 2, "entries": [["1/2", "1/2"], ["1/2", "1/2"]]}

    @pytest.mark.parametrize(
        "matrix, arc",
        [
            ({"n": 2, "entries": [[0.5, 0.5], [0.5, 0.5]]}, ARC12_JSON),
            ([["1/2", "1/2"], ["1/2", "1/2"]], ARC12_JSON),
            (GOOD_MATRIX, "[]"),
            (GOOD_MATRIX, json.dumps({**json.loads(ARC12_JSON), "n": "x"})),
            (BOOL_MATRIX12, ARC12_JSON),
            (type0(5, F(1, 3)).to_json(), MISCLASSIFIED_ARC5),
        ],
        ids=["float-entries", "matrix-list", "arc-list", "arc-n-string", "bool-entries",
             "arc-misclassified"],
    )
    def test_verify_error_exit_1(self, capsys, tmp_path, matrix, arc):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix))
        code, out, err = run(capsys, "verify", "--matrix", str(f), "--arc", arc, "--alpha", "1/3")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "matrix, arc",
        [
            (BOOL_MATRIX15, ARC15_JSON),
            (build_sparsest(ARC15, F(1, 2), (0, 0, 3)).to_json(),
             MISCLASSIFIED_ARC15),
        ],
        ids=["bool-entries", "arc-misclassified"],
    )
    def test_probe_error_exit_1(self, capsys, tmp_path, matrix, arc):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(matrix))
        code, out, err = run(capsys, "probe", "--matrix", str(f), "--arc", arc, "--alpha", "1/2")
        assert code == 1 and out == ""
        assert err.startswith("error: ")


    BAD_ARCS = [
        ("nope", "Expecting value: line 1 column 1 (char 0)"),
        (json.dumps({**json.loads(ARC15_JSON), "type": "IV"}), "'IV' is not a valid ArcType"),
    ]

    @pytest.mark.parametrize("verb", ["verify", "probe"])
    @pytest.mark.parametrize("arc, reason", BAD_ARCS, ids=["not-json", "unknown-type"])
    def test_arc_errors_name_the_flag(self, capsys, tmp_path, verb, arc, reason):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(self.GOOD_MATRIX))
        code, out, err = run(capsys, verb, "--matrix", str(f), "--arc", arc, "--alpha", "1/2")
        assert (code, out, err) == (1, "", f"error: --arc: {reason}\n")

    def test_malformed_matrix_names_the_flag(self, capsys, tmp_path):
        # Read character by character, these rows would be the identity.
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"n": 2, "entries": ["10", "01"]}))
        code, out, err = run(capsys, "verify", "--matrix", str(f), "--arc", ARC12_JSON, "--alpha", "1/3")
        reason = 'a matrix must be a JSON object {"n": int, "entries": [[...], ...]}'
        assert (code, out, err) == (1, "", f"error: --matrix: {reason}\n")

    @pytest.mark.parametrize("verb", ["verify", "probe"])
    def test_empty_stdin_names_the_matrix_flag(self, capsys, monkeypatch, verb):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        code, out, err = run(capsys, verb, "--matrix", "-", "--arc", ARC15_JSON, "--alpha", "1/2")
        assert (code, out, err) == (1, "", "error: --matrix: Expecting value: line 1 column 1 (char 0)\n")

    def test_order_other_than_n_names_the_matrix_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"n":3,"entries":[["1"]]}'))
        code, out, err = run(capsys, "verify", "--matrix", "-", "--arc", ARC12_JSON, "--alpha", "1/3")
        assert (code, out, err) == (1, "", "error: --matrix: matrix order does not match 'n'\n")


class TestAugmentCli:
    def test_dry_run_lists_parameters(self, capsys):
        code, out, _ = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
            "--add", "2,6", "--add", "3,7", "--add", "4,8",
        )
        assert code == 0
        assert "alpha_1" in out and "alpha_3" in out

    def test_instantiate(self, capsys):
        code, out, _ = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
            "--add", "2,6", "--add", "3,7", "--add", "4,8", "--alpha", "1/2",
            "--param", "alpha_1=9/10", "--param", "alpha_2=9/10", "--param", "alpha_3=9/10",
        )
        assert code == 0
        m = StochMatrix.from_json(json.loads(out))
        assert m.entries[3][0] == F(500, 729)

    def test_rejected_edge_exit_1(self, capsys):
        code, _, err = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
            "--add", "5,9",
        )
        assert code == 1 and "rejected" in err

    @pytest.mark.parametrize("adds, message", [
        (["2,99"], "edge (2, 99) out of range"),
        (["0,5"], "edge (0, 5) out of range"),
        (["2,3"], "edge (2, 3) is not a candidate connector from block 1 to block 2"),
        (["2,6", "2,6"], "edge (2, 6) is already present"),
        (["5,9"], "edge (5, 9) rejected: it would create a long cycle of length [5] instead of 9"),
        # the last block's successor wraps round to block 1
        (["9,1"], "edge (9, 1) is not a candidate connector from block 3 to block 1"),
    ])
    def test_edge_errors_name_the_edge_as_typed(self, capsys, adds, message):
        argv = [x for edge in adds for x in ("--add", edge)]
        code, out, err = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3", *argv,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_repeated_param_exit_1(self, capsys):
        code, out, err = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
            "--add", "2,6", "--alpha", "1/2", "--param", "alpha_1=1/2", "--param", "alpha_1=9/10",
        )
        assert (code, out) == (1, "")
        assert err == "error: --param alpha_1 given twice\n"

    def test_empty_param_value_exit_1(self, capsys):
        code, out, err = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3",
            "--add", "2,6", "--alpha", "1/2", "--param", "alpha_1=",
        )
        assert (code, out) == (1, "")
        assert err == "error: --param expects name=p/q, got 'alpha_1='\n"

    @pytest.mark.parametrize("extra, message", [
        (["--add", "x"], "--add expects 'src,dst' (1-based), got 'x'"),
        (["--alpha", "1/2", "--param", "alpha_9=1/2"], "unknown parameters ['alpha_9']; expected []"),
        (["--add", "2,6", "--alpha", "1/2"], "missing parameters ['alpha_1']"),
    ], ids=["malformed-add", "unknown-param", "missing-param"])
    def test_add_and_param_errors_exit_1(self, capsys, extra, message):
        code, out, err = run(
            capsys, "augment", "--q", "4", "--d", "3", "--z", "3", "--composition", "0,3,3", *extra,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestProbeCli:
    def test_probe_found(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "realize", "III", "--q", "4", "--d", "3", "--y", "3",
            "--alpha", "1/2", "--composition", "0,0,3",
        )
        f = tmp_path / "m.json"
        f.write_text(out)
        code, out, _ = run(capsys, "probe", "--matrix", str(f), "--arc", ARC15_JSON, "--alpha", "1/2")
        assert code == 0
        assert out.splitlines()[0] == (
            f"FOUND: family form with the vertices in the order {list(range(1, 16))}"
        )
        assert "blocks (1-based): [[4], [8], [15]]" in out

    def test_probe_not_found(self, capsys, tmp_path, monkeypatch):
        # A fake spec reader stands in for a realization outside family form.
        monkeypatch.setattr(realize_module, "_family_spec_of", lambda m, n, q: None)
        f = tmp_path / "m.json"
        f.write_text(json.dumps(build_sparsest(ARC15, F(1, 2), (0, 0, 3)).to_json()))
        code, out, err = run(capsys, "probe", "--matrix", str(f), "--arc", ARC15_JSON, "--alpha", "1/2")
        assert (code, out, err) == (0, "NOT-FOUND: no relabelling puts the matrix in family form\n", "")


class TestRegionCli:
    def test_svg_and_summary(self, capsys, tmp_path):
        svg_path = tmp_path / "theta4.svg"
        code, out, _ = run(capsys, "region", "4", "--samples", "64", "--svg", str(svg_path))
        assert code == 0
        assert "traced 6 arcs" in out
        content = svg_path.read_text()
        assert content.count("<polyline") == 6

    def test_csv_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "traces"
        code, _, _ = run(capsys, "region", "3", "--samples", "16", "--csv-dir", str(out_dir))
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [f"arc_{i:03d}.csv" for i in range(4)]

    def test_stalled_continuation_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(_Branch, "solve", lambda self, a, u: None)
        code, out, err = run(capsys, "region", "5")
        assert (code, out) == (1, "")
        assert err.startswith("error: continuation stalled at a = "), err


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys):
        argvs = [
            ["arcs", "12", "--json"],
            ["realize", "II", "--q", "4", "--d", "3", "--z", "3",
             "--alpha", "1/3", "--composition", "0,3,3"],
            ["enumerate", "--type", "III", "--q", "4", "--d", "3", "--y", "3", "--alpha", "1/2"],
            ["region", "3", "--samples", "32", "--json"],
        ]
        for argv in argvs:
            _, out1, _ = run(capsys, *argv)
            _, out2, _ = run(capsys, *argv)
            assert out1 == out2


# Integers stay small: the CLI has no size limits, and an order or q^d in
# the millions would only run long, not fail.
FUZZ_INTS = st.integers(-2, 5).map(str)
FUZZ_JUNK = [
    "", "x", "/", "1/", "1/0", "-1/2", "3/2", "0.5", "1e999", "nan", "a,b", "0,0", "=", "[]",
    "{}", "null", "true", '{"n": 5}', "missing.json", "IV",
]
# Each verb's flags, with values it can accept ("MATRIX" is a valid matrix file).
FUZZ_FLAGS = {
    "arcs": {"--json": None},
    "realize": {
        "--n": FUZZ_INTS, "--q": FUZZ_INTS, "--d": FUZZ_INTS, "--z": FUZZ_INTS, "--y": FUZZ_INTS,
        "--alpha": ["1/2", "1/3", "0", "1"], "--composition": ["0,3,3", "1,1,1", "0,0,3", "0,1"],
        "--alphas": ["1/2,1", "1/3,1,1", "1/2"], "--emit": ["json", "dot", "both"],
    },
    "enumerate": {
        "--type": ["0", "I", "II", "III"], "--n": FUZZ_INTS, "--q": FUZZ_INTS, "--d": FUZZ_INTS,
        "--z": FUZZ_INTS, "--y": FUZZ_INTS, "--alpha": ["1/2", "2/3"], "--json": None,
    },
    "verify": {"--matrix": ["MATRIX", "-"], "--arc": [ARC12_JSON, ARC15_JSON, MISCLASSIFIED_ARC5],
               "--alpha": ["1/3", "1/2"]},
    "region": {"--samples": FUZZ_INTS, "--json": None},
    "augment": {
        "--q": FUZZ_INTS, "--d": FUZZ_INTS, "--z": FUZZ_INTS, "--composition": ["0,3,3", "1,2"],
        "--add": ["2,6", "3,7", "1,5", "9,1"], "--alpha": ["1/2"],
        "--param": ["alpha_1=9/10", "alpha_2"],
        "--emit": ["json", "dot"],
    },
    "probe": {"--matrix": ["MATRIX", "-"], "--arc": [ARC15_JSON, ARC12_JSON], "--alpha": ["1/2"]},
    "bogus": {"--help": None},
    "--help": {},
}
FUZZ_POSITIONAL = {"arcs": FUZZ_INTS, "region": FUZZ_INTS, "realize": ["0", "I", "II", "III"]}


@pytest.fixture(scope="module")
def fuzz_matrix(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m12.json"
    matrix = build_sparsest(ARC12, F(1, 3), (0, 3, 3))
    path.write_text(json.dumps(matrix.to_json()))
    return str(path)


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_no_traceback_and_documented_exit_code(self, fuzz_matrix, data):
        """A verb, a subset of its flags and now and then another's; values
        fitting, integer, rational or junk; exit 0, 1 or 2, never a traceback."""

        def value(fitting):
            if data.draw(st.integers(0, 4)) == 0:  # one value in five does not fit
                return data.draw(st.one_of(FUZZ_INTS, st.sampled_from(FUZZ_JUNK)))
            if not isinstance(fitting, st.SearchStrategy):
                fitting = st.sampled_from([fuzz_matrix if v == "MATRIX" else v for v in fitting])
            return data.draw(fitting)

        verb = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
        own = FUZZ_FLAGS[verb]
        others = {k: v for flags in FUZZ_FLAGS.values() for k, v in flags.items()}
        positional = FUZZ_POSITIONAL.get(verb)
        if positional is None:
            positional, counts = FUZZ_JUNK, [0, 0, 0, 1]
        else:
            counts = [1, 1, 1, 0, 2]
        count = data.draw(st.sampled_from(counts))
        argv = [verb] + [value(positional) for _ in range(count)]
        names = data.draw(st.lists(st.sampled_from(sorted(own)), unique=True)) if own else []
        names += data.draw(st.lists(st.sampled_from(sorted(others)), max_size=1))
        for name in data.draw(st.permutations(names)):
            fitting = own[name] if name in own else others[name]
            argv += [name] if fitting is None else [name, value(fitting)]
        piped = data.draw(st.sampled_from(["", "[]", "{oops", json.dumps({"n": 2})]))
        out, err, stdin, sys.stdin = io.StringIO(), io.StringIO(), sys.stdin, io.StringIO(piped)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
            code = exc.code
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 1 and not out.getvalue():
            assert err.getvalue().startswith("error: "), argv
