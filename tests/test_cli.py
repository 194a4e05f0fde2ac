import json

import pytest

from linadd import cli, suites
from linadd.cli import main
from linadd.derivation import IMALL2, check, d_ax, d_withR, is_eta_expanded
from linadd.families import gen_add, gen_applied, gen_ladd
from linadd.frontend import parse_derivation, parse_type, print_derivation
from linadd.inhabit import InhabitError, maximal_value
from linadd.typesys import bool_type, tensor_type, unit_type


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


def test_inhabitants_of_a_long_arrow_spine(capsys):
    # the search walks the goal's -o/forall spine in a loop
    code, rep = run_json(capsys, "inhabitants", "forall a. " + " -o ".join(["a"] * 1201))
    assert (code, rep["measurements"]["count"]) == (0, 0)


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


@pytest.mark.parametrize("family", ["add", "ladd"])
@pytest.mark.parametrize("text", ["B*B", "bool*unit"])
def test_gen_reads_named_types_inside_a_compound_base(capsys, family, text):
    a = {"B*B": tensor_type(bool_type(), bool_type()),
         "bool*unit": tensor_type(bool_type(), unit_type())}[text]
    code, rep = run_json(capsys, "gen", family, "-n", "2", "--base", text, "--apply")
    assert (code, rep["verdict"]) == (0, "pass")
    code, out = run(capsys, "gen", family, "-n", "2", "--base", text, "--apply",
                    "--derivation")
    gen = {"add": gen_add, "ladd": gen_ladd}[family]
    want = gen_applied(gen(2, a)[1], maximal_value(a)[1])
    assert code == 0 and out == print_derivation(want) + "\n"


def test_check_reports_the_dag_size_that_the_file_keeps(tmp_path, capsys):
    # applied ladd(1,12) is 16,460 rules as a tree over 106 distinct nodes,
    # and its file writes each shared node once
    out = tmp_path / "ladd.lamd"
    assert run(capsys, "gen", "ladd", "-n", "12", "--apply",
               "--derivation", "-o", str(out))[0] == 0
    code, rep = run_json(capsys, "check", str(out))
    ms = rep["measurements"]
    assert (code, ms["violations"], ms["size"], ms["dag_size"]) == (0, 0, 16460, 106)


# Legal inputs that nest past Python's recursion limit, which each command
# walks with its own stacks.  `check` accepts each file; every node of it
# is built by its rule, so no quoted text nests.
_UNIT = '(rule forallR g a (rule lolliR x (rule ax x "g")))'
_TENSOR = " * ".join(["1"] * 1500)
_WITH = " & ".join(["1"] * 1501)
_GUARD = "(rule withR0 " * 1500 + _UNIT + (" " + _UNIT + ")") * 1500


@pytest.mark.parametrize("argv,text", [
    (["gen", "add", "-n", "400", "-o", "FILE"], None),
    (["inhabitants", " * ".join(["1"] * 300)], None),
    (["inhabitants", _TENSOR], None),
    (["translate", "FILE"], '(lamd 2 (rule withR1 x (rule ax x1 "%s") (rule ax x2 "%s") %s))'
     % (_WITH, _WITH, _GUARD)),
    (["eta-expand", "FILE"], '(lamd 2 (rule ax x "%s"))' % _TENSOR),
    (["translate", "FILE"], '(lamd 2 (rule withL1 y x "%s" (rule ax x "1")))' % _TENSOR),
    (["translate", "FILE"], '(lamd 2 (rule withL1 y x "%s" (rule ax x "1")))'
     % " & ".join(["1"] * 1500)),
], ids=["gen-add-400-print_term", "inhabitants-300-print_type",
        "inhabitants-1500-tensor_fast_path", "translate-1501-duplicator",
        "eta-expand-1500-tensor", "translate-1500-tensor-eraser",
        "translate-1500-with-eraser"])
def test_deep_legal_inputs_pass(tmp_path, capsys, argv, text):
    f = tmp_path / "input"
    if text is not None:
        f.write_text(text)
        assert run_json(capsys, "check", str(f))[1]["verdict"] == "pass"
    code, rep = run_json(capsys, *[str(f) if a == "FILE" else a for a in argv])
    assert (code, rep["verdict"]) == (0, "pass")


def test_deep_generated_term_reads_back_and_normalizes(tmp_path, capsys):
    f = tmp_path / "add400.lam"
    assert run(capsys, "gen", "add", "-n", "400", "-o", str(f))[0] == 0
    code, rep = run_json(capsys, "normalize", str(f))
    assert (code, rep["verdict"], rep["measurements"].get("steps")) == (0, "pass", 400)


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
    assert len(rep["measurements"]["blowup"]["table"]) == 8


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


@pytest.mark.parametrize("text, message", [
    ('(lamd 2 (rule ax x "a -o"))\n', "unexpected 'end of input'"),
], ids=["malformed"])
def test_input_error_reports_json(tmp_path, capsys, text, message):
    f = tmp_path / "in.lamd"
    f.write_text(text)
    code, rep = run_json(capsys, "check", str(f))
    assert code == 2
    assert rep["command"] == "check" and rep["verdict"] == "error"
    assert rep["inputs"]["file"] == str(f)
    assert len(rep["details"]) == 1 and message in rep["details"][0]


def test_deep_derivation_file_checks_and_translates(tmp_path, capsys, cut_chain):
    f = tmp_path / "deep.lamd"
    f.write_text(print_derivation(cut_chain(3000)))
    for cmd in ("check", "translate"):
        code, rep = run_json(capsys, cmd, str(f))
        assert (code, rep["verdict"]) == (0, "pass"), cmd
    assert rep["measurements"]["derivation_size"] == 2 * 3000 + 3


def _arrows(tmp_path, n):
    f = tmp_path / ("arrows%d.lamd" % n)
    f.write_text('(lamd 2 (rule ax x "%s"))\n' % " -o ".join(["a"] * (n + 1)))
    return str(f)


def _frames_deeper(n, fn, *args):
    return fn(*args) if n == 0 else _frames_deeper(n - 1, fn, *args)


def test_long_arrow_axiom_translates_and_eta_expands(tmp_path, capsys):
    code, rep = run_json(capsys, "translate", _arrows(tmp_path, 1500))
    assert (code, rep["verdict"]) == (0, "pass")
    # The eta-long derivation of n arrows holds about n^2/2 subject nodes,
    # so a long spine is tried from deep in the stack instead: a walk that
    # recursed once per arrow would pass the interpreter's limit.
    code, rep = _frames_deeper(750, run_json, capsys, "eta-expand", _arrows(tmp_path, 300))
    assert (code, rep["verdict"]) == (0, "pass")
    # an axiom and, per arrow, an axiom, a lolliL and a lolliR
    assert rep["measurements"]["output_size"] == 1 + 3 * 300


def test_gen_builds_deep_family_members(capsys):
    for family in ("add", "ladd"):
        code, rep = run_json(capsys, "gen", family, "-n", "1200")
        assert (code, rep["verdict"]) == (0, "pass"), family


def test_subcommands_take_only_the_options_they_read(tmp_path, capsys):
    f = tmp_path / "in.lamd"
    f.write_text('(lamd 2 (rule ax x "a"))\n')
    with pytest.raises(SystemExit) as info:
        main(["check", str(f), "--budget", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --budget 3" in capsys.readouterr().err


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
    assert rep["details"] == ["blowup: InhabitError: no inhabitant"]
    monkeypatch.setitem(suites.SUITES, "blowup", breaks)
    code, rep = run_json(capsys, "suite", "blowup")
    assert code == 3 and rep["verdict"] == "error"
    assert rep["details"] == ["internal error: KeyError: 'oops'"]


def _one_report(capsys, argv):
    """(exit code, report) of a --json call whose stdout is one JSON
    document: json.loads refuses a second one after the first."""
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def _invocations(tmp_path):
    """For each subcommand but suite: an argv that passes, one with an input
    that does not parse, and the name in `cli` of the call doing the work."""
    ax, term = tmp_path / "ax.lamd", tmp_path / "t.lam"
    ax.write_text('(lamd 2 (rule ax x "a"))\n')
    term.write_text("(\\x. x) (\\y. y)\n")
    broken = tmp_path / "broken"
    broken.write_text("(lamd 2 (rule\n")
    return {
        "check": (["check", ax], ["check", broken], "check"),
        "normalize": (["normalize", term], ["normalize", broken], "normalize"),
        "cutelim": (["cutelim", ax], ["cutelim", broken], "eliminate"),
        "eta-expand": (["eta-expand", ax], ["eta-expand", broken], "eta_expand"),
        "inhabitants": (["inhabitants", "bool"], ["inhabitants", "a -o"],
                        "enumerate_inhabitants"),
        "translate": (["translate", ax], ["translate", broken],
                      "translate_derivation"),
        "gen": (["gen", "ladd", "-n", "1"], ["gen", "ladd", "-n", "1", "--base", "a -o"],
                "gen_ladd"),
    }


@pytest.mark.parametrize("command", ["check", "normalize", "cutelim", "eta-expand",
                                     "inhabitants", "translate", "gen"])
def test_every_ending_writes_one_report(tmp_path, capsys, monkeypatch, command):
    good, bad, work = _invocations(tmp_path)[command]
    good, bad = [str(a) for a in good], [str(a) for a in bad]
    endings = {}
    endings["pass"] = _one_report(capsys, good)
    endings["input"] = _one_report(capsys, bad)

    def refuses(*args, **kwargs):
        raise InhabitError("no inhabitant")

    def breaks(*args, **kwargs):
        raise RuntimeError("boom")

    for ending, fn in (("library", refuses), ("internal", breaks)):
        with monkeypatch.context() as m:
            m.setattr(cli, work, fn)
            endings[ending] = _one_report(capsys, good)
    got = {k: (code, rep["verdict"]) for k, (code, rep) in endings.items()}
    assert got == {"pass": (0, "pass"), "library": (1, "fail"),
                   "input": (2, "error"), "internal": (3, "error")}
    assert endings["library"][1]["details"][-1] == "no inhabitant"
    assert endings["internal"][1]["details"] == ["internal error: RuntimeError: boom"]
    for code, rep in endings.values():
        assert rep["command"] == command
        assert set(rep["inputs"]) == set(endings["pass"][1]["inputs"])


def test_normalize_inputs_do_not_depend_on_the_ending(tmp_path, capsys):
    f = tmp_path / "in.lam"
    reps = []
    for text in ("(\\x. x) (\\y. y)\n", "\\x."):
        f.write_text(text)
        reps.append(_one_report(capsys, ["normalize", str(f), "--budget", "5"]))
    assert [code for code, _ in reps] == [0, 2]
    assert reps[0][1]["inputs"] == reps[1][1]["inputs"] == {
        "budget": 5, "file": str(f), "seed": 0, "strategy": "leftmost",
        "trace": False}


def test_budget_failure_keeps_the_phases_that_ran(tmp_path, capsys):
    f = tmp_path / "t.lam"
    f.write_text("(\\x. x) (\\y. y)\n")
    code, rep = _one_report(capsys, ["normalize", str(f), "--budget", "0"])
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["details"] == ["no normal form within 0 steps"]
    assert set(rep["measurements"]["timings"]) == {"parse_s", "work_s"}


def _stub_suites(monkeypatch, **stubs):
    """Every suite a stub that passes, unless named; none reads the corpus."""
    def passes(corpus, gadgets):
        return suites.SuiteResult({"ran": True})

    for name in suites.SUITES:
        monkeypatch.setitem(suites.SUITES, name, stubs.get(name, passes))
    monkeypatch.setattr(suites, "CORPUS_SUITES", frozenset())


def test_suite_all_writes_one_report(capsys, monkeypatch):
    def refuses(corpus, gadgets):
        raise InhabitError("no inhabitant")

    def finds(corpus, gadgets):
        return suites.SuiteResult({"ran": True}, ["two", "failures"])

    _stub_suites(monkeypatch, blowup=refuses, duplicator=finds)
    code, rep = _one_report(capsys, ["suite", "all"])
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["inputs"] == {"name": "all", "seed": 0}
    assert rep["details"] == ["blowup: InhabitError: no inhabitant",
                              "duplicator: two", "duplicator: failures"]
    names = list(suites.SUITES)
    assert names.index("blowup") < len(names) - 1  # later suites still run
    ms = rep["measurements"]
    assert set(ms) == {*names, "timings"}
    assert set(ms["timings"]) == {name + "_s" for name in names}
    assert {name: ms[name] for name in names} == {
        name: {} if name == "blowup" else {"ran": True} for name in names}


@pytest.mark.parametrize("exc, code, verdict", [
    (None, 0, "pass"), (OSError("unreadable"), 2, "error"),
    (RuntimeError("boom"), 3, "error"),
], ids=["pass", "input", "internal"])
def test_suite_endings_write_one_report(capsys, monkeypatch, exc, code, verdict):
    def raises(corpus, gadgets):
        raise exc

    _stub_suites(monkeypatch, **({} if exc is None else {"confluence": raises}))
    got, rep = _one_report(capsys, ["suite", "all"])
    assert (got, rep["verdict"]) == (code, verdict)
    assert set(rep["measurements"]["timings"]) <= {n + "_s" for n in suites.SUITES}


@pytest.mark.parametrize("argv", [["gen", "ladd", "-n", "-1"],
                                  ["gen", "add", "-n", "-3"]])
def test_gen_refuses_a_negative_n(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "argument -n" in capsys.readouterr().err


def test_gen_over_an_uninhabited_base_fails(capsys):
    code, rep = _one_report(capsys, ["gen", "ladd", "-n", "1", "--base", "forall a. a"])
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["details"] == ["base type is uninhabited"]


@pytest.mark.parametrize("command", ["check", "normalize", "cutelim", "eta-expand",
                                     "translate"])
def test_undecodable_input_is_an_input_error(tmp_path, capsys, command):
    f = tmp_path / "in"
    f.write_bytes(b'\xff\xfe(lamd 2 (rule ax x "a"))\n')
    code, rep = _one_report(capsys, [command, str(f)])
    assert (code, rep["verdict"]) == (2, "error")
    assert len(rep["details"]) == 1 and "can't decode" in rep["details"][0]
    assert main([command, str(f)]) == 2


@pytest.mark.parametrize("argv", [["normalize", "t.lam", "--budget", "-3"],
                                  ["cutelim", "d.lamd", "--budget", "-1"]])
def test_a_negative_budget_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "argument --budget: -" in capsys.readouterr().err
    argv[-1] = "0"  # a budget of no steps is a count
    assert cli.build_parser().parse_args(argv).budget == 0


@pytest.mark.parametrize("argv", [["gen", "ladd", "-n", "abc"],
                                  ["normalize", "t.lam", "--budget", "abc"]])
def test_a_count_that_is_not_a_number_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: 'abc' is not a whole number" % argv[-2] in err
    assert "_natural" not in err


def test_a_byte_order_mark_is_read_as_utf8(tmp_path, capsys):
    term, deriv = tmp_path / "t.lam", tmp_path / "d.lamd"
    term.write_bytes(b"\xef\xbb\xbf\\x. x")
    deriv.write_bytes(b'\xef\xbb\xbf(lamd 2 (rule ax x "a"))\n')
    code, rep = run_json(capsys, "normalize", str(term))
    assert (code, rep["verdict"]) == (0, "pass")
    assert run_json(capsys, "check", str(deriv))[0] == 0
