import json

import pytest

from linadd import cli, suites
from linadd.cli import main
from linadd.derivation import IMALL2, check, d_ax, d_withR, is_eta_expanded
from linadd.frontend import parse_derivation, parse_type, print_derivation
from linadd.inhabit import InhabitError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_inhabitants_bool(capsys):
    code, rep = run_json(capsys, "inhabitants", "bool")
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["measurements"]["count"] == 2
    assert len(rep["details"]) == 2


def test_inhabitants_type_literal(capsys):
    code, rep = run_json(capsys, "inhabitants", "forall a. a -o a")
    assert code == 0 and rep["measurements"]["count"] == 1


def test_report_schema(capsys):
    _, rep = run_json(capsys, "inhabitants", "unit")
    assert set(rep) == {"command", "inputs", "measurements", "verdict", "details"}


def test_gen_and_check_round_trip(tmp_path, capsys):
    out = tmp_path / "ladd.lamd"
    code, _ = run(capsys, "gen", "ladd", "-n", "2", "--apply",
                  "--derivation", "-o", str(out))
    assert code == 0
    code, rep = run_json(capsys, "check", str(out))
    assert code == 0 and rep["measurements"]["violations"] == 0
    timings = rep["measurements"]["timings"]
    assert set(timings) == {"parse_s", "work_s"}
    assert all(v >= 0 for v in timings.values())


def test_main_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; what one call parses does not
    # reach the next
    f = tmp_path / "ax.lamd"
    f.write_text(print_derivation(d_ax("x", parse_type("a"))))
    code, rep = run_json(capsys, "check", str(f), "--system", "imll2")
    assert code == 0 and rep["inputs"]["system"] == "imll2"
    code, rep = run_json(capsys, "check", str(f))
    assert code == 0 and rep["inputs"]["system"] == "lam"
    code, out = run(capsys, "check", str(f))
    assert code == 0 and not out.startswith("{")
    assert cli.build_parser() is cli.build_parser()


def test_check_reports_failures(tmp_path, capsys):
    bad = tmp_path / "bad.lamd"
    bad.write_text('(lamd 2 (rule ax x "1" (seq () "x" "1")))\n')
    code, rep = run_json(capsys, "check", str(bad))
    assert code == 1
    assert rep["verdict"] == "fail" and rep["details"]


@pytest.mark.parametrize("text", [
    # fails check: an axiom with no assumption
    '(lamd 2 (rule ax x "forall a. a -o a" (seq () "x" "forall a. a -o a")))',
    # checks, but the conclusion has a negative forall
    '(lamd 2 (rule lolliR x (seq () "\\x. x" "(forall a. a) -o forall a. a")'
    ' (rule ax x "forall a. a")))',
], ids=["fails-check", "not-forall-lazy"])
def test_cutelim_rejects_input(tmp_path, capsys, text):
    f = tmp_path / "in.lamd"
    f.write_text(text + "\n")
    code, rep = run_json(capsys, "cutelim", str(f))
    assert code == 1
    assert rep["verdict"] == "fail" and rep["details"]


def test_normalize_term_file(tmp_path, capsys):
    f = tmp_path / "t.lam"
    f.write_text("(\\x. x) (\\y. y)\n")
    code, rep = run_json(capsys, "normalize", str(f), "--trace")
    assert code == 0
    assert rep["measurements"]["steps"] == 1
    assert rep["measurements"]["trace"][0]["kind"] == "beta"


def test_cutelim_pipeline(tmp_path, capsys):
    src = tmp_path / "in.lamd"
    run(capsys, "gen", "ladd", "-n", "1", "--apply", "--derivation",
        "-o", str(src))
    capsys.readouterr()
    code, rep = run_json(capsys, "cutelim", str(src))
    assert code == 0
    assert rep["measurements"]["steps"] > 0
    assert rep["measurements"]["output_size"] < rep["measurements"]["input_size"]


def test_translate_reports_compression(tmp_path, capsys):
    src = tmp_path / "in.lamd"
    run(capsys, "gen", "ladd", "-n", "1", "--base", "bool", "--apply",
        "--derivation", "-o", str(src))
    capsys.readouterr()
    code, rep = run_json(capsys, "translate", str(src))
    assert code == 0
    m = rep["measurements"]
    assert m["translated_derivation_size"] > m["derivation_size"]
    assert 0 < m["translated_dag_size"] < m["translated_derivation_size"]


def test_json_reports_leave_the_text_unprinted(tmp_path, capsys, monkeypatch):
    src, cutfree = tmp_path / "in.lamd", tmp_path / "cutfree.lamd"
    run(capsys, "gen", "ladd", "-n", "1", "--base", "bool", "--apply",
        "--derivation", "-o", str(src))
    code, out = run(capsys, "cutelim", str(src))
    cutfree.write_text(out)

    def refuses(d):
        raise AssertionError("printed a derivation that the report leaves out")

    monkeypatch.setattr(cli, "print_derivation", refuses)
    for argv, phases in ((["cutelim", str(src)], {"parse_s", "work_s"}),
                         (["eta-expand", str(cutfree)], {"parse_s", "work_s"}),
                         (["translate", str(src)], {"parse_s", "work_s"}),
                         (["gen", "ladd", "-n", "2", "--derivation"], {"work_s"}),
                         (["inhabitants", "bool"], {"work_s"})):
        code, rep = run_json(capsys, *argv)
        assert code == 0 and rep["verdict"] == "pass", argv
        timings = rep["measurements"]["timings"]
        assert set(timings) == phases and min(timings.values()) >= 0, argv


def test_suite_blowup(capsys):
    code, rep = run_json(capsys, "suite", "blowup")
    assert code == 0 and rep["verdict"] == "pass"
    assert len(rep["measurements"]["table"]) == 8


def test_suite_cubic(capsys):
    code, rep = run_json(capsys, "suite", "cutelim-cubic")
    assert code == 0 and rep["verdict"] == "pass"


def test_normalize_deep_term(tmp_path, capsys):
    f = tmp_path / "deep.lam"
    f.write_text("".join("\\v%d. " % i for i in range(1500)) + "v0\n")
    code, rep = run_json(capsys, "normalize", str(f))
    assert code == 0 and rep["verdict"] == "pass"
    assert rep["measurements"]["steps"] == 0
    assert rep["measurements"]["input_size"] == 1501


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "broken.lam"
    f.write_text("\\x.")
    assert main(["normalize", str(f)]) == 2


def test_missing_file_exit_code():
    assert main(["check", "/nonexistent/q.lamd"]) == 2


_DEEP_LAMD = ('(lamd 2 ' + '(rule lolliR x ' * 3000
              + '(rule ax x "a")' + ")" * 3001)


@pytest.mark.parametrize("text, message", [
    ('(lamd 2 (rule ax x "a -o"))\n', "unexpected 'end of input'"),
    (_DEEP_LAMD, "nesting too deep"),
], ids=["malformed", "deep"])
def test_input_error_reports_json(tmp_path, capsys, text, message):
    f = tmp_path / "in.lamd"
    f.write_text(text)
    code, rep = run_json(capsys, "check", str(f))
    assert code == 2
    assert rep["command"] == "check" and rep["verdict"] == "error"
    assert rep["inputs"]["file"] == str(f)
    assert len(rep["details"]) == 1 and message in rep["details"][0]


def test_file_without_header_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "in.lamd"
    f.write_text('(rule ax (seq ((x "a")) "x" "a"))\n')
    code, rep = run_json(capsys, "check", str(f))
    assert code == 2 and rep["verdict"] == "error"
    assert rep["details"] == ['missing header "(lamd 2" at 0..1']


def test_translate_rejects_input_that_fails_check(tmp_path, capsys):
    # the cut states its judgement but not its parameters
    f = tmp_path / "in.lamd"
    f.write_text('(lamd 2 (rule cut (seq ((x "a")) "x" "a")'
                 ' (rule ax x "a") (rule ax x "a")))\n')
    code, rep = run_json(capsys, "translate", str(f))
    assert code == 1 and rep["verdict"] == "fail"
    assert rep["details"] == ["params [cut at root]: parameters not stated"]


def test_eta_expand_rejects_input_that_fails_check(tmp_path, capsys):
    # the lolliR states its judgement but not its parameter
    f = tmp_path / "in.lamd"
    f.write_text('(lamd 2 (rule lolliR (seq () "\\x. x" "a -o a") (rule ax x "a")))\n')
    code, rep = run_json(capsys, "eta-expand", str(f))
    assert code == 1 and rep["verdict"] == "fail"
    assert rep["details"] == ["params [lolliR at root]: parameters not stated"]


def test_eta_expand_accepts_imall2_input(tmp_path, capsys):
    # withR is an imall2 rule, not a lam one
    ax = d_ax("x", parse_type("forall a. a -o a"))
    f = tmp_path / "in.lamd"
    f.write_text(print_derivation(d_withR(ax, ax)))
    code, out = run(capsys, "eta-expand", str(f))
    assert code == 0
    out = parse_derivation(out)
    assert is_eta_expanded(out) and not check(out, IMALL2)


def test_missing_file_reports_json(capsys):
    code, rep = run_json(capsys, "check", "/nonexistent/q.lamd")
    assert code == 2 and rep["verdict"] == "error" and rep["details"]


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    f = tmp_path / "in.lamd"
    f.write_text('(lamd 2 (rule ax x "a"))\n')

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check", broken)
    code, rep = run_json(capsys, "check", str(f))
    assert code == 3
    assert rep["verdict"] == "error"
    assert rep["details"] == ["internal error: RuntimeError: boom"]
    assert main(["check", str(f)]) == 3
    assert "RuntimeError: boom" in capsys.readouterr().err  # the traceback


def test_suite_failures_are_the_library_errors(capsys, monkeypatch):
    def refuses(corpus, gadgets):
        raise InhabitError("no inhabitant")

    def breaks(corpus, gadgets):
        raise KeyError("oops")

    monkeypatch.setitem(suites.SUITES, "blowup", refuses)
    code, rep = run_json(capsys, "suite", "blowup")
    assert code == 1 and rep["verdict"] == "fail"
    assert rep["details"] == ["InhabitError: no inhabitant"]
    monkeypatch.setitem(suites.SUITES, "blowup", breaks)
    code, rep = run_json(capsys, "suite", "blowup")
    assert code == 3 and rep["verdict"] == "error"
    assert rep["details"] == ["internal error: KeyError: 'oops'"]
