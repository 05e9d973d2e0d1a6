"""Command-line behavior: verbs, exit codes, JSON determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qomin import cli
from qomin.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_true_exits_zero(capsys):
    code, out, _ = capture(capsys, ["decide", "--theory", "pres_z",
                                    "A x. A y. x + y = y + x"])
    assert code == 0
    assert json.loads(out)["truth"] is True


def test_decide_false_exits_one(capsys):
    code, out, _ = capture(capsys, ["decide", "--theory", "pres_z", "E x. x + x = 1"])
    assert code == 1
    assert json.loads(out)["truth"] is False


def test_qe_doubling(capsys):
    code, out, _ = capture(capsys, ["qe", "--theory", "pres_z", "E x. 2*x = y"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["output"] == "D2(y)"
    assert payload["quantifier_free"] is True


def test_parse_reports_free_vars(capsys):
    code, out, _ = capture(capsys, ["parse", "--theory", "pres_z", "E x. x < y"])
    assert code == 0
    assert json.loads(out)["free_vars"] == ["y"]


def test_parse_error_exits_three(capsys):
    code, _, err = capture(capsys, ["parse", "--theory", "pres_z", "P(x)"])
    assert code == 3
    assert "signature" in err


def test_usage_error_exits_two(capsys):
    code, _, _ = capture(capsys, ["bogus"])
    assert code == 2
    code, _, _ = capture(capsys, ["qe", "--theory", "pres_z"])  # no formula
    assert code == 2


def test_window_cap_exits_four(capsys, monkeypatch):
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "5")
    code, _, err = capture(capsys, ["eval", "--theory", "pres_z",
                                    "E x. 2*x = y", "--at", "y=6",
                                    "--window", "-10,10"])
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("raw", ["abc", "-5", "0"])
def test_malformed_window_cap_exits_three(capsys, monkeypatch, raw):
    monkeypatch.setenv("QOMIN_WINDOW_CAP", raw)
    code, out, err = capture(capsys, ["eval", "--theory", "pres_z", "E u. u < x",
                                      "--at", "x=0", "--window", "-2,2"])
    assert code == 3 and out == ""
    assert err == f"qomin: QOMIN_WINDOW_CAP must be a positive integer, got {raw!r}\n"


def test_window_cap_read_by_every_window(capsys, monkeypatch):
    """classes and decompose --verify obey QOMIN_WINDOW_CAP like eval, and
    density reads it even when n leaves nothing to scan."""
    classes = ["classes", "--theory", "pres_z", "D2(x - y)", "--var", "x",
               "--params", "0;1", "--window", "-8,8"]
    decompose = ["decompose", "--theory", "pres_z", "x < y", "--var", "x",
                 "--at", "y=1", "--verify", "--window", "-4,4"]
    density = ["density", "--n", "4"]
    for argv in (classes, decompose, density):
        assert capture(capsys, argv)[0] == 0
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "5")
    for argv in (classes, decompose):
        code, out, err = capture(capsys, argv)
        assert (code, out) == (4, "") and err.endswith(", cap is 5\n")
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "abc")
    for argv in (classes, decompose, density):
        code, out, err = capture(capsys, argv)
        assert (code, out) == (3, "")
        assert err == "qomin: QOMIN_WINDOW_CAP must be a positive integer, got 'abc'\n"


def test_eval_windowed(capsys):
    code, out, _ = capture(capsys, ["eval", "--theory", "pres_z", "E x. 2*x = y",
                                    "--at", "y=6", "--window", "-10,10"])
    assert code == 0
    assert json.loads(out)["value"] is True


def test_eval_quantifier_without_window_names_the_flag(capsys):
    code, out, err = capture(capsys, ["eval", "--theory", "pres_z", "E u. u = x",
                                      "--at", "x=1"])
    assert (code, out) == (3, "")
    assert err == ("qomin: formula contains quantifiers; pass --window to search "
                   "them over a window\n")


def test_eval_quantifier_free(capsys):
    code, out, _ = capture(capsys, ["eval", "--theory", "lex_zq", "x < y",
                                    "--at", "x=(0,9),y=(1,-9)"])
    assert code == 0
    assert json.loads(out)["value"] is True


def test_decompose_json_schema(capsys):
    code, out, _ = capture(capsys, ["decompose", "--theory", "lex_zq",
                                    "2*x > y", "--var", "x"])
    assert code == 0
    payload = json.loads(out)
    assert payload["var"] == "x" and payload["params"] == ["y"]
    assert len(payload["disjuncts"]) >= 3
    assert all(w["kind"] == "procedure" for w in payload["witnesses"])
    assert payload["selectors_folded_into_psi"] is True
    kinds = {c for d in payload["disjuncts"] for c in d["rho"]}
    assert kinds <= {"z1 < x", "z2 < x", "x < z1", "x < z2", "x = z1", "x = z2"}


def test_decompose_with_verification(capsys):
    code, out, _ = capture(capsys, [
        "decompose", "--theory", "pres_z", "x + x = y", "--var", "x",
        "--at", "y=6", "--verify", "--window", "-20,20",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["witness_values"] == ["3"]
    assert payload["verification"]["passed"] is True


def test_verify_verb(capsys):
    code, out, _ = capture(capsys, ["verify", "--theory", "pres_z", "E x. 3*x = y",
                                    "--asg-window", "-6,6", "--window", "-12,12"])
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_classes_verb(capsys):
    code, out, _ = capture(capsys, ["classes", "--theory", "pres_z", "D3(x - y)",
                                    "--var", "x", "--params", "0;1;2;3",
                                    "--window", "-30,30"])
    assert code == 0
    assert json.loads(out)["class_count"] == 3


def test_classes_wrong_parameter_count_exits_three(capsys):
    code, out, err = capture(capsys, ["classes", "--theory", "pres_z", "x < y",
                                      "--params", "1,2;3,4"])
    assert (code, out) == (3, "")
    assert err == "qomin: expected 1 parameter values, got 2\n"


def test_cuts_verb(capsys):
    code, out, _ = capture(capsys, ["cuts", "--n", "2",
                                    "--bounds", "(1,0);(3,0);(5,0)",
                                    "--exclude", "(2,0)"])
    assert code == 0
    assert json.loads(out)["maximal_excluding"] == "(3, 0)"


def test_density_verb(capsys):
    code, out, _ = capture(capsys, ["density", "--n", "3",
                                    "--window", "-16,16,1024",
                                    "--resolution", "1/32"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dense"] is True and payload["codense"] is True
    code, out, _ = capture(capsys, ["density", "--n", "2"])
    assert json.loads(out)["case"] == "nG = G"


def test_intervals_verb(capsys):
    code, out, _ = capture(capsys, ["intervals", "--theory", "doag_q",
                                    "(0 < x & x < 1) | x = 2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pieces"] == [
        {"lo": "0", "hi": "1", "lo_closed": False, "hi_closed": False},
        {"lo": "2", "hi": "2", "lo_closed": True, "hi_closed": True},
    ]


def test_file_input_with_theory_header(capsys, tmp_path):
    path = tmp_path / "f.q"
    path.write_text("#theory: pres_z\n# doubling\nE x. 2*x = y\n")
    code, out, _ = capture(capsys, ["qe", "--file", str(path), "--format", "text"])
    assert code == 0
    assert out.strip() == "D2(y)"


def test_expand_delta_flag(capsys):
    code, out, _ = capture(capsys, ["parse", "--theory", "lex_zq", "del0(x)",
                                    "--expand-delta", "--format", "text"])
    assert code == 0
    assert "del0" not in out
    assert "E " in out or "A " in out  # quantified base-language expansion


def test_component_language_flag(capsys):
    code, out, _ = capture(capsys, ["qe", "--theory", "lex_zq", "E x. 2*x = y",
                                    "--component-language"])
    assert code == 0
    payload = json.loads(out)
    assert payload["component"]["vars"] == {"y": ["y_z", "y_2"]}


def test_byte_identical_reruns(capsys):
    argv = ["decompose", "--theory", "lex_zq", "2*x > y", "--var", "x"]
    _, out1, _ = capture(capsys, argv)
    _, out2, _ = capture(capsys, argv)
    assert out1 == out2
    argv2 = ["qe", "--theory", "tchain", "--formula", "E x. S1(x, y) & S1(x, z)"]
    _, a, _ = capture(capsys, argv2)
    _, b, _ = capture(capsys, argv2)
    assert a == b


def test_text_format(capsys):
    code, out, _ = capture(capsys, ["decide", "--theory", "pres_z",
                                    "E x. x = 0", "--format", "text"])
    assert code == 0
    assert out.strip() == "true"


def test_verify_cancelled_bound_variable_exits_zero(capsys):
    code, out, _ = capture(capsys, ["verify", "--theory", "pres_z", "E u. u + y < u + z"])
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_dnf_cap_exits_four(capsys):
    # two clauses of 317 bounds each: 317 * 317 = 100,489 DNF conjuncts
    uppers = " | ".join(f"u < a{i}" for i in range(317))
    lowers = " | ".join(f"b{i} < u" for i in range(317))
    code, _, err = capture(capsys, ["qe", "--theory", "dlo_pred",
                                    f"E u. ({uppers}) & ({lowers})"])
    assert code == 4
    assert "cap" in err


def test_negated_integer_bound_stays_one_atom(capsys):
    # this sentence used to pass the DNF cap: each ~(a < b) was b < a | b = a
    code, out, _ = capture(capsys, ["decide", "--theory", "pres_n",
                                    "E y. A u. y < u -> y < u + 1"])
    assert code == 0
    assert json.loads(out)["truth"] is True


def test_cooper_branch_cap_exits_four(capsys):
    # period 97 * 89 * 83 = 716,539 test points
    code, _, err = capture(capsys, ["qe", "--theory", "pres_z",
                                    "E x. D97(x) & D89(x + 1) & D83(x + 2) & y < x"])
    assert code == 4
    assert "cap" in err


def test_density_scan_cap_exits_four(capsys, monkeypatch):
    # 1/1000000 over the default window is 32,000,000 intervals
    code, out, err = capture(capsys, ["density", "--n", "3", "--resolution", "1/1000000"])
    assert code == 4 and out == ""
    assert "cap" in err
    monkeypatch.setenv("QOMIN_WINDOW_CAP", "1023")
    code, _, err = capture(capsys, ["density", "--n", "3"])  # 1,024 intervals
    assert code == 4
    assert "cap" in err


# stdout and exit code of one call per verb, plus decide and verify on lex
# rows: this pins the schema 1 output byte for byte, so re-record it only
# with a deliberate schema change
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_cli_golden_output(capsys, case):
    code, out, _ = capture(capsys, case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


# ---------------------------------------------------------------------------
# input errors found in the text of a flag exit 3, never with a traceback


@pytest.mark.parametrize("argv", [
    ["density", "--n", "3", "--resolution", "1/0"],
    ["eval", "--theory", "doag_q", "E u. u < x", "--at", "x=1/0", "--window", "-2,2,2"],
    ["eval", "--theory", "lex_zq", "x < 1Z", "--at", "x=(1,1/0)"],
], ids=["density-resolution", "eval-doag_q-at", "eval-lex_zq-pair"])
def test_zero_denominator_exits_three(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert (code, out) == (3, "")
    assert err == "qomin: zero denominator in '1/0'\n"


@pytest.mark.parametrize("argv,window,bad", [
    (["eval", "--theory", "doag_q", "E u. u < x", "--at", "x=0", "--window", "-2,2,x"],
     "-2,2,x", "x"),
    (["density", "--n", "3", "--window", "-1,1,q"], "-1,1,q", "q"),
    (["density", "--n", "3", "--window", "-1,1,0"], "-1,1,0", "0"),
    (["verify", "--theory", "doag_q", "E u. u < x", "--asg-window", "-1,1,1.5"],
     "-1,1,1.5", "1.5"),
], ids=["eval-name", "density-name", "density-zero", "verify-fraction"])
def test_window_denominator_must_be_positive_integer(capsys, argv, window, bad):
    code, out, err = capture(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (f"qomin: window denominator bound {bad!r} is not a positive "
                   f"integer in {window!r}\n")


@pytest.mark.parametrize("argv,window", [
    (["verify", "--theory", "pres_z", "E u. u = x", "--asg-window", "3,1"], "3,1"),
    (["eval", "--theory", "pres_z", "E u. u = u", "--window", "4,-4"], "4,-4"),
    (["eval", "--theory", "lex_zz", "E u. u = u", "--window", "(0,2),(1,1)"],
     "(0,2),(1,1)"),
    (["eval", "--theory", "lex_zq", "E u. u = u", "--window", "(1,0),(0,1)"],
     "(1,0),(0,1)"),
], ids=["verify-asg-window", "eval-scalar", "eval-pair-second", "eval-pair-first"])
def test_reversed_window_exits_three(capsys, argv, window):
    # an empty window would make every E false and every A true
    code, out, err = capture(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"qomin: window lower end exceeds its upper end in {window!r}\n"


@pytest.mark.parametrize("subset", ["(1,0)", "(1,0);(2,0);(3,0)"])
def test_cuts_subset_needs_two_bounds(capsys, subset):
    code, out, err = capture(capsys, ["cuts", "--subset", subset])
    assert (code, out) == (3, "")
    assert err == f"qomin: --subset takes two bounds 'a1;a2', got {subset!r}\n"


def test_single_point_window_is_a_window(capsys):
    code, out, _ = capture(capsys, ["eval", "--theory", "lex_zq", "E u. u = u",
                                    "--window", "(0,1),(0,1)"])
    assert (code, json.loads(out)["value"]) == (0, True)


def test_decompose_at_missing_parameter_exits_three(capsys):
    code, out, err = capture(capsys, ["decompose", "--theory", "pres_z", "x < y",
                                      "--var", "x", "--at", "z=1"])
    assert (code, out) == (3, "")
    assert err == "qomin: unbound variable(s): y\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--theory", "pres_z", "x < 1", "--at", "x=1,x=2"],
    ["eval", "--theory", "pres_z", "x < 1", "--at", "x=1, y=0, x = 1"],
    ["decompose", "--theory", "pres_z", "x < y", "--var", "x", "--at", "y=1,y=2"],
], ids=["eval-last-would-win", "eval-spaced", "decompose"])
def test_repeated_binding_exits_three(capsys, argv):
    # the last binding used to win: x=1,x=2 printed "value": false for x < 1
    code, out, err = capture(capsys, argv)
    at = argv[argv.index("--at") + 1]
    assert (code, out) == (3, "")
    assert err == f"qomin: variable {at.split('=')[0]!r} is bound twice in {at!r}\n"


@pytest.mark.parametrize("at,binding", [
    ("=5", "=5"), ("y=1, =5", "=5"), (" = 5", "= 5"), ("X=1", "X=1"), ("true=1", "true=1"),
    ("1x=2", "1x=2"),
], ids=["empty", "second", "spaced", "upper", "reserved", "digit"])
def test_binding_must_name_a_variable(capsys, at, binding):
    # "=5" used to bind the empty name, and a sentence then evaluated with exit 0
    code, out, err = capture(capsys, ["eval", "--theory", "pres_z", "1 < 2", "--at", at])
    assert (code, out) == (3, "")
    assert err == f"qomin: binding {binding!r} does not name a variable\n"


@pytest.mark.parametrize("theory,text", [
    ("pres_z", "1/2"), ("pres_n", "x"), ("doag_q", "1.5.2"), ("lex_zz", "(1,1/2)"),
    ("lex_zq", "(1/2,0)"),
])
def test_element_text_of_another_kind_names_the_theory(capsys, theory, text):
    code, out, err = capture(capsys, ["eval", "--theory", theory, "x = x", "--at", f"x={text}"])
    assert (code, out) == (3, "")
    assert err == f"qomin: {text!r} is not an element of the {theory} model\n"


def test_n_zero_is_a_value(capsys):
    code, _, err = capture(capsys, ["density", "--n", "0"])
    assert (code, err) == (3, "qomin: n must be >= 2\n")
    code, _, err = capture(capsys, ["cuts", "--n", "0", "--bounds", "(1,0)",
                                    "--exclude", "(2,0)"])
    assert (code, err) == (3, "qomin: cut coefficient must be positive\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--theory", "dyadic", "E u. u < x"],
    ["verify", "--theory", "dyadic", "E u. u < x", "--window", "-2,2,2",
     "--asg-window", "-1,1,2"],
    ["classes", "--theory", "dyadic", "x < y", "--var", "x", "--params", "0"],
], ids=["verify", "verify-windows", "classes"])
def test_theory_without_corpus_exits_three(capsys, argv):
    # exit 1 would read as "decided false" or DISAGREE
    code, out, err = capture(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("qomin: ") and "dyadic" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the option reader: one table, every call of a process reads afresh


def test_cli_import_loads_no_argparse():
    probe = ("import sys, qomin.cli as c; "
             "c.run(['parse', '--theory', 'pres_z', 'x < 1', '--format', 'text']); "
             "print('argparse' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_reuse_component_language_does_not_stick(capsys):
    argv = ["qe", "--theory", "lex_zq", "E x. 2*x = y"]
    _, first, _ = capture(capsys, argv + ["--component-language"])
    code, second, _ = capture(capsys, argv)
    assert "component" in json.loads(first)
    assert code == 0 and "component" not in json.loads(second)


def test_reuse_text_format_does_not_stick(capsys):
    argv = ["decide", "--theory", "pres_z", "E x. x = 0"]
    _, first, _ = capture(capsys, argv + ["--format", "text"])
    code, second, _ = capture(capsys, argv)
    assert first == "true\n"
    assert code == 0 and json.loads(second)["truth"] is True


def test_reuse_decide_true_then_false(capsys):
    code, out, _ = capture(capsys, ["decide", "--theory", "pres_z", "A x. A y. x + y = y + x"])
    assert code == 0 and json.loads(out)["truth"] is True
    code, out, _ = capture(capsys, ["decide", "--theory", "pres_z", "E x. x + x = 1"])
    assert code == 1 and json.loads(out)["truth"] is False


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["qe", "--theory", "pres_z"],                     # no formula: the handler's error
    ["qe", "--theory", "pres_z", "--format", "xml", "x < 1"],
    ["density"],
    ["cuts", "--n", "two"],
    [],
], ids=["verb", "no-formula", "choice", "no-n", "n-type", "empty"])
def test_reuse_after_usage_error(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: qomin ") and "\nqomin: error: " in err
    assert capture(capsys, argv) == (code, out, err)
    case = GOLDEN[0]
    assert capture(capsys, case["argv"])[:2] == (case["exit"], case["stdout"])


# a value of each type and choice the table allows
_SAMPLE = {"format": "text", "direction": "-inf", "n": "3"}


def test_value_options_come_from_the_option_table():
    """Every flag of `_OPTIONS` is read in its `--flag value` and its
    `--flag=value` form, to the destination and type the table gives."""
    flags = [(flag, kw) for flags, kw in cli._OPTIONS for flag in flags if flag.startswith("--")]
    assert len(flags) == len(cli._OPTIONS) - 1  # all but the positional formula
    for flag, kw in flags:
        dest = kw.get("dest", flag[2:].replace("-", "_"))
        if kw.get("action") == "store_true":
            _, args = cli._read_args(["qe", flag])
            assert getattr(args, dest) is True
            _, args = cli._read_args(["qe"])
            assert getattr(args, dest) is False
            with pytest.raises(cli._UsageError):
                cli._read_args(["qe", f"{flag}=yes"])
            continue
        text = _SAMPLE.get(dest, "-1,1")
        want = kw.get("type", str)(text)
        for argv in (["qe", flag, text], ["qe", f"{flag}={text}"]):
            verb, args = cli._read_args(argv)
            assert verb == "qe" and getattr(args, dest) == want, argv
            others = {d: v for d, v in vars(args).items() if d != dest}
            assert others == {d: v for d, v in cli._DEFAULTS.items() if d != dest}


@pytest.mark.parametrize("argv", [
    ["eval", "--theory", "pres_z", "E u. u < x", "--at", "x=-1", "--window", "-2,2"],
    ["eval", "--theory", "pres_z", "E u. u < x", "--at=x=-1", "--window=-2,2"],
    ["eval", "--theory", "pres_z", "--at", "x=-1", "--window", "-2,2", "--", "E u. u < x"],
    ["eval", "--theory", "pres_z", "--at", "x=-1", "--window", "-2,2", "-1 < x + 1"],
], ids=["separate", "joined", "after-double-dash", "formula-with-dash"])
def test_values_may_begin_with_a_dash(capsys, argv):
    code, out, _ = capture(capsys, argv)
    assert code == 0 and json.loads(out)["value"] is True


def test_unique_prefix_is_read_and_an_ambiguous_one_exits_two(capsys):
    code, out, _ = capture(capsys, ["eval", "--th", "pres_z", "E u. u < x", "--a", "x=0",
                                    "--win", "-2,2"])
    assert (code, out) == (2, "")  # --a could be --asg-window or --at
    code, out, _ = capture(capsys, ["eval", "--th", "pres_z", "E u. u < x", "--at", "x=0",
                                    "--win", "-2,2", "--forma=text"])
    assert (code, out) == (0, "true\n")
    for ambiguous in ("--form", "--f", "--v", "--c"):
        code, out, err = capture(capsys, ["decide", "--theory", "pres_z", "E x. x = 0",
                                          ambiguous, "text"])
        assert (code, out) == (2, "")
        assert f"ambiguous option {ambiguous}: could be " in err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"], ["qe", "--help"],
                                  ["density", "--n", "3", "-h"]])
def test_help_exits_zero_and_names_every_verb(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert (code, err) == (0, "")
    assert "verbs: " + ", ".join(cli._HANDLERS) in out
    for flags, _ in cli._OPTIONS[1:]:
        assert f"  {flags[0]}" in out


@pytest.mark.parametrize("argv", [
    ["--theory", "pres_z", "qe", "x < 1"],            # an option before the verb
    ["qe", "--theory", "pres_z", "x < 1", "y < 1"],   # two formulas
    ["qe", "--theory", "pres_z", "x < 1", "--nope"],
    ["qe", "--theory", "pres_z", "x < 1", "-x"],
    ["qe", "--theory", "pres_z", "x < 1", "--verify=yes"],
    ["eval", "--theory", "pres_z", "x < 1", "--window"],
    ["density", "--n=2.5"],
], ids=["option-first", "two-formulas", "unknown", "single-dash", "flag-value",
        "no-value", "n-type"])
def test_other_usage_errors_exit_two(capsys, argv):
    code, out, err = capture(capsys, argv)
    assert (code, out) == (2, "")
    assert "qomin: error: " in err


# ---------------------------------------------------------------------------
# the JSON writer: schema 1 is json.dumps(payload, indent=2), byte for byte

_TEXTS = ["", "x", 'q"uote', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f",
          "café", "  ", "\U0001f600", "\ud800", "</script>"]
_SCALARS = [None, True, False, 0, -1, 2**70, -(10**40), 0.0, -0.0, 0.1, 1e300, 1.5e-7,
            float("inf"), float("-inf"), float("nan")]


def _random_json(rng, depth: int):
    kind = rng.randrange(6 if depth else 2)
    if kind == 0:
        return rng.choice(_TEXTS) + rng.choice(_TEXTS)
    if kind == 1:
        return rng.choice(_SCALARS)
    if kind in (2, 3):
        return [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {rng.choice(_TEXTS) + str(i): _random_json(rng, depth - 1)
            for i in range(rng.randrange(4))}


def _json_payloads():
    rng = random.Random("json-writer")
    yield from (json.loads(case["stdout"]) for case in GOLDEN if case["stdout"].startswith("{"))
    yield from ([], {}, "", None, 2**70, ("a", []))
    for _ in range(2000):
        yield {"v": _random_json(rng, 4), "w": [], "x": {}, "y": (1, "t")}


def test_json_writer_is_json_dumps_indent_2():
    for payload in _json_payloads():
        assert cli._json(payload, "\n") == json.dumps(payload, indent=2)
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json({"a": [object()]}, "\n")


# an element outside the model is named as the CLI writes elements
@pytest.mark.parametrize("argv,shown,theory", [
    (["eval", "--theory", "dyadic", "E u. u < x", "--at", "x=1/2", "--window", "1/3,1,4"],
     "1/3", "dyadic"),
    (["eval", "--theory", "pres_z", "E u. u < x", "--at", "x=(1,2)", "--window", "-2,2"],
     "(1, 2)", "pres_z"),
    (["density", "--n", "3", "--window", "1/3,1,4", "--resolution", "1/4"], "1/3", "dyadic"),
], ids=["dyadic-window", "pres_z-pair", "density-window"])
def test_foreign_element_named_as_written(capsys, argv, shown, theory):
    code, out, err = capture(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"qomin: element {shown} does not belong to the {theory} model\n"


@pytest.mark.parametrize("text", ["abc", "-1/4", "0"])
def test_bad_resolution_exits_three_naming_the_flag(capsys, text):
    code, out, err = capture(capsys, ["density", "--n", "3", "--window", "-1,1,4",
                                      "--resolution", text])
    assert (code, out) == (3, "")
    assert err == f"qomin: --resolution must be a positive rational such as 1/32, got {text!r}\n"
