"""Command-line surface."""

import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from clic import catalog, parse_formula, parse_model, satisfies
from clic import cli
from clic._eval import (
    MAX_FRAME_BITS, MAX_FRAME_WALK, MAX_REACH_WORK, MAX_VALUATIONS,
)
from clic.formula import MAX_AGENT, MAX_NESTING
from clic.laws import MAX_INSTANTIATIONS
from clic.model import MAX_OUTCOMES
from clic.cli import build_parser, main

M1 = """\
agents 2
state s
state t
state u
init s
actions 1 a b
actions 2 a b
prop p t
outcome s a a -> t
default s -> u
default t -> t
default u -> u
"""


@pytest.fixture
def m1_path(tmp_path):
    path = tmp_path / "m1.clm"
    path.write_text(M1)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_ast_and_canonical(capsys):
    code, out, _ = run(capsys, "parse", "I[1]p -> I[1,2]p")
    assert code == 0
    ast, canonical = out.splitlines()
    assert ast == ("Implies(Inability([1], Atom(p)), "
                   "Inability([1,2], Atom(p)))")
    assert canonical == "I[1] p -> I[1,2] p"


def test_parse_structured(capsys):
    code, out, _ = run(capsys, "parse", "true", "--structured")
    assert code == 0
    assert out.splitlines() == ["ast: Top", "canonical: true"]


def test_parse_syntax_error_reports_offset(capsys):
    code, out, err = run(capsys, "parse", "E[1,]p")
    assert code == 2
    assert out == ""
    assert "offset 4" in err


def test_check_inability_with_counters(capsys, m1_path):
    code, out, _ = run(capsys, "check", m1_path, "I[1] p")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "result: true"
    assert set(lines[1:]) == {"counter: 1:a => 2:b", "counter: 1:b => 2:a"}


def test_check_ability_with_witness(capsys, m1_path):
    code, out, _ = run(capsys, "check", m1_path, "E[1,2] p")
    assert code == 0
    assert out.splitlines() == ["result: true", "witness: 1:a 2:a"]


def test_check_false_exits_one(capsys, m1_path):
    code, out, _ = run(capsys, "check", m1_path, "I[1,2] p")
    assert code == 1
    assert out.splitlines() == ["result: false"]


def test_check_boolean_formula_has_no_witness_line(capsys, m1_path):
    code, out, _ = run(capsys, "check", m1_path, "p | !p")
    assert code == 0
    assert out.splitlines() == ["result: true"]


def test_check_at_named_state(capsys, m1_path):
    code, out, _ = run(capsys, "check", m1_path, "p", "--state", "t")
    assert code == 0
    assert out.splitlines() == ["result: true"]


def test_check_unknown_state_is_usage_error(capsys, m1_path):
    code, _, err = run(capsys, "check", m1_path, "p", "--state", "zz")
    assert code == 2
    assert "zz" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.clm"), "p")
    assert code == 2
    assert err.startswith("error:")


def test_check_non_utf8_file_is_usage_error(tmp_path):
    path = tmp_path / "bad.clm"
    path.write_bytes(M1.encode() + b"# \xff\n")
    proc = subprocess.run(
        [sys.executable, "-m", "clic.cli", "check", str(path), "p"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_check_accepts_a_leading_byte_order_mark(capsys, m1_path, tmp_path):
    path = tmp_path / "bom.clm"
    path.write_bytes(b"\xef\xbb\xbf" + M1.encode())
    plain = run(capsys, "check", m1_path, "E[1,2] p")
    assert run(capsys, "check", str(path), "E[1,2] p") == plain
    assert plain[0] == 0


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "I[](I[1]q)")
    assert code == 0
    assert out.strip() == "!E[] !E[1] q"
    code, out, _ = run(capsys, "translate", "p", "--structured")
    assert code == 0
    assert out.strip() == "formula: p"


def test_countermodel_output_pipes_back_through_check(capsys, tmp_path):
    code, out, _ = run(capsys, "countermodel", "I[1]p -> I[1,2]p")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1].startswith("at: ")
    state = lines[-1].split(": ")[1]
    model_text = "\n".join(lines[:-1]) + "\n"
    path = tmp_path / "cm.clm"
    path.write_text(model_text)
    code, out, _ = run(capsys, "check", str(path), "I[1]p -> I[1,2]p",
                       "--state", state)
    assert code == 1
    assert out.splitlines()[0] == "result: false"


def test_countermodel_structured_lines_reassemble(capsys):
    code, out, _ = run(capsys, "countermodel", "I[1]p -> I[1,2]p",
                       "--structured")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "result: counterexample"
    assert lines[1].startswith("at: ")
    body = "\n".join(line.removeprefix("model: ")
                     for line in lines[2:]) + "\n"
    m = parse_model(body)
    state = lines[1].split(": ")[1]
    assert not satisfies(m, state, parse_formula("I[1]p -> I[1,2]p"))


def test_countermodel_exhaustion(capsys):
    code, out, _ = run(capsys, "countermodel", "I[1,2]p -> I[1]p")
    assert code == 0
    assert out.splitlines() == [
        "no counterexample within bounds",
        "models_checked: 928",
        "states_checked: 2664",
    ]


def test_countermodel_structured_exhaustion(capsys):
    # The search alphabet comes from the formula; "false" mentions no
    # atoms, so the model space carries no valuations at all.
    code, out, _ = run(capsys, "countermodel", "!E[1] false", "--structured")
    assert code == 0
    assert out.splitlines() == [
        "result: exhausted",
        "models_checked: 152",
        "states_checked: 412",
    ]


def test_countermodel_insufficient_bounds(capsys):
    code, _, err = run(capsys, "countermodel", "E[1] E[1] p")
    assert code == 2
    assert "vary" in err
    code, out, _ = run(capsys, "countermodel", "E[1] E[1] true",
                       "--all-states", "--states", "2")
    assert code == 0
    assert out.splitlines()[0] == "no counterexample within bounds"


def test_countermodel_respects_bounds_flags(capsys):
    code, out, _ = run(capsys, "countermodel", "E[] false",
                       "--agents", "1", "--states", "1", "--actions", "1")
    assert code == 1
    assert "at: s1" in out.splitlines()


def test_laws_single_row_with_fixture_detail(capsys):
    code, out, _ = run(capsys, "laws", "--law", "symmetry")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["law", "expected", "observed",
                                "instantiations", "models_checked", "result"]
    assert lines[2].startswith("symmetry")
    assert lines[2].endswith("PASS")
    assert "fixture model: symmetry" in lines
    assert "fixture state: s" in lines
    assert "fixture instance: I[1] p <-> I[2] !p" in lines
    assert "fixture replay: ok" in lines
    assert [line for line in lines if line.startswith("claim")] == [
        "claim: E[1] p = true", "claim: I[1] p = false",
        "claim: I[2] !p = true"]


def _broken_symmetry(part):
    """The symmetry row with its fixture pinning one claim wrongly, or
    with an instance that holds at the fixture state."""
    from dataclasses import replace
    from clic import catalog
    law = next(law for law in catalog() if law.id == "symmetry")
    fx = law.fixture
    if part == "claim":
        fx = replace(fx, claims=(("E[1] p", False),) + fx.claims[1:])
    else:
        fx = replace(fx, instance="E[1] p")
    return replace(law, id="broken", fixture=fx)


@pytest.mark.parametrize("part", ["claim", "instance"])
def test_laws_fixture_mismatch_fails_the_row(capsys, monkeypatch, part):
    from clic import replay_fixture
    law = _broken_symmetry(part)
    assert replay_fixture(law) is False
    monkeypatch.setattr("clic.laws.catalog", lambda: (law,))
    code, out, _ = run(capsys, "laws", "--law", "broken")
    assert code == 1
    lines = out.splitlines()
    assert lines[2].startswith("broken") and lines[2].endswith("FAIL")
    mismatch = "claim-mismatch: E[1] p pinned as false"
    assert (mismatch in lines) is (part == "claim")
    assert lines[-1] == "fixture replay: MISMATCH"


def test_laws_row_without_fixture(capsys):
    code, out, _ = run(capsys, "laws", "--law", "truth")
    assert code == 0
    assert "fixture: none" in out.splitlines()


def test_laws_unknown_id(capsys):
    code, out, err = run(capsys, "laws", "--law", "modus-ponens")
    assert (code, out) == (2, "")
    assert err == "error: unknown law id 'modus-ponens'\n"


def test_laws_structured_single(capsys):
    code, out, _ = run(capsys, "laws", "--law", "contradiction",
                       "--structured")
    assert code == 0
    assert out.splitlines() == [
        "law: contradiction",
        "expected: valid",
        "observed: valid",
        "instantiations: 4",
        "models_checked: 29584",
        "result: PASS",
    ]


def test_laws_degenerate_bounds_fail_some_rows(capsys):
    code, out, _ = run(capsys, "laws", "--agents", "1", "--states", "1",
                       "--actions", "1")
    assert code == 1
    lines = out.splitlines()
    failed = [line.split()[0] for line in lines if line.endswith("FAIL")]
    assert "upward-propagation" in failed
    assert "ability-distribution" in failed
    passed = [line.split()[0] for line in lines if line.endswith("PASS")]
    assert "anti-monotonicity" in passed


@pytest.mark.parametrize("argv", [
    ("parse", "p"), ("check", "m.clm", "p"), ("translate", "p"),
    ("countermodel", "p"), ("laws",),
])
def test_each_subcommand_binds_its_handler(argv):
    args = build_parser().parse_args(argv)
    assert args.run is getattr(cli, f"cmd_{argv[0]}")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "clic.cli", "parse", "E[1] p"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "E[1] p"


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("parse", "p"), ("countermodel", "p | !p"), ("laws", "--law", "symmetry"),
], ids=lambda argv: argv[0])
def test_closed_stdout_exits_2_with_no_message(argv, buffered):
    """A reader that went away is no usage error to report: exit 2, and
    neither an error line nor an ignored exception at shutdown."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "clic.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE,
                              text=True, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.parametrize("argv", [
    ("countermodel", "E[1]p", "--agents", "0"),
    ("laws", "--states", "0"),
])
def test_zero_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "bounds" in err


NESTED = {
    "!": lambda n: "!" * n + "p",
    "&": lambda n: " & ".join(["p"] * (n + 1)),
    "->": lambda n: " -> ".join(["p"] * (n + 1)),
    "E": lambda n: "E[1] " * n + "p",
    "I": lambda n: "I[1] " * n + "p",
}
COMMANDS = ["parse", "translate", "check", "countermodel"]


def run_formula(capsys, m1_path, command, text):
    argv = [command, text]
    if command == "check":
        argv.insert(1, m1_path)
    if command == "countermodel":
        argv += ["--agents", "1", "--states", "1", "--actions", "1",
                 "--all-states"]
    return run(capsys, *argv)


@pytest.mark.parametrize("shape", NESTED)
@pytest.mark.parametrize("command", COMMANDS)
def test_nesting_is_bounded_at_the_parser(capsys, m1_path, command, shape):
    """Formula text nested to the bound runs; one level deeper is a
    usage error, never a traceback."""
    for n, codes in ((MAX_NESTING, (0, 1)), (MAX_NESTING + 1, (2,))):
        text = NESTED[shape](n)
        code, _, err = run_formula(capsys, m1_path, command, text)
        assert code in codes
        if code == 2:
            assert err.startswith("error: ") and "nested deeper" in err
        else:
            assert err == ""


@pytest.mark.parametrize("command", COMMANDS)
def test_parentheses_add_no_height(capsys, m1_path, command):
    """Redundant parentheses pass the bound; only text deep enough to
    exhaust the parser is a usage error, never a traceback."""
    for n in (MAX_NESTING + 1, 300):
        text = "(" * n + "!p" + ")" * n
        code, _, err = run_formula(capsys, m1_path, command, text)
        assert code in (0, 1) and err == ""
    text = "(" * 5000 + "p" + ")" * 5000
    code, _, err = run_formula(capsys, m1_path, command, text)
    assert code == 2
    assert err.startswith("error: ") and "nested deeper" in err


# Each was a traceback (OverflowError, ValueError or MemoryError) or, at
# 10**9, a 125 MB coalition mask.
HUGE_AGENTS = ["99999999999999999999", "7" * 5000, "20000000000",
               "1000000000", str(MAX_AGENT + 1)]


@pytest.mark.parametrize("agent", HUGE_AGENTS,
                         ids=lambda a: f"{len(a)}-digits")
def test_agent_index_above_the_bound_is_usage_error(capsys, agent):
    code, out, err = run(capsys, "parse", f"p & E[1,{agent}] p")
    assert code == 2 and out == ""
    assert err == (f"error: agent indices are at most {MAX_AGENT} "
                   "at offset 8\n")


def _one_state_model(agents, actions, acts="a"):
    """A model file with one state; each agent in `actions` has the
    actions `acts`."""
    return "\n".join([f"agents {agents}", "state s", "init s",
                      *(f"actions {i} {acts}" for i in actions),
                      "default s -> s"]) + "\n"


@pytest.mark.parametrize("text,line", [
    (_one_state_model("7" * 5000, []), 1),
    (_one_state_model(MAX_AGENT + 1, []), 1),
    (_one_state_model(2, ["7" * 5000]), 4),
    (_one_state_model(2, [MAX_AGENT + 1]), 4),
], ids=["agents-5000-digits", "agents-above", "actions-5000-digits",
        "actions-above"])
def test_model_integer_above_the_bound_is_usage_error(capsys, tmp_path, text,
                                                       line):
    path = tmp_path / "big.clm"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path), "p")
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {line}: ") and str(MAX_AGENT) in err


def test_agent_bound_itself_is_accepted(capsys, tmp_path):
    text = f"E[{MAX_AGENT}] p"
    code, out, err = run(capsys, "parse", text)
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"Ability([{MAX_AGENT}], Atom(p))", text]
    path = tmp_path / "wide.clm"
    path.write_text(_one_state_model(MAX_AGENT, range(1, MAX_AGENT + 1)))
    code, out, err = run(capsys, "check", str(path), text)
    assert (code, out, err) == (1, "result: false\n", "")


@pytest.mark.parametrize("text", [
    None, _one_state_model("\u0661", [1]), _one_state_model(1, ["\u0661"]),
], ids=["formula", "agents", "actions"])
def test_non_ascii_digit_is_usage_error(capsys, tmp_path, text):
    """An Arabic-Indic one is not an agent index: digits are ASCII."""
    argv = ["parse", "E[\u0661] p"]
    if text is not None:
        path = tmp_path / "digit.clm"
        path.write_text(text, encoding="utf-8")
        argv = ["check", str(path), "p"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("agents,code", [(16, 1), (17, 2), (24, 2)])
def test_outcome_count_is_bounded_before_expansion(capsys, tmp_path, agents,
                                                   code):
    """Two actions per agent: 16 agents make MAX_OUTCOMES outcomes, 17 one
    agent too many; 24 used to run out of memory and exit 1."""
    path = tmp_path / "wide.clm"
    path.write_text(_one_state_model(agents, range(1, agents + 1), "a b"))
    got, out, err = run(capsys, "check", str(path), "p")
    assert got == code
    if code == 1:
        assert (out, err) == ("result: false\n", "")
    else:
        assert out == ""
        assert err == (f"error: more than {MAX_OUTCOMES} outcomes (states "
                       "times complete action profiles)\n")


_REACH = (f"search too large: its blocks take over {MAX_REACH_WORK} steps "
          f"to build, at the block of agents ")
_LANES = f"search too large: over {MAX_VALUATIONS} valuations, at the block "
_FRAMES = f"search too large: over 2**{MAX_FRAME_BITS} frames, at the block "
_WALK = (f"search too large: it walks over {MAX_FRAME_WALK} frames, at the "
         "block ")


@pytest.mark.parametrize("argv,code,tail", [
    (("countermodel", "p | !p", "--agents", "4"), 0,
     ("models_checked: 344911660", "states_checked: 1034466764")),
    (("laws", "--agents", "4"), 2, _REACH + "4, states 3"),
    (("countermodel", "p | !p", "--agents", "12", "--states", "1"), 0,
     ("models_checked: 16380", "states_checked: 16380")),
    (("countermodel", "p | !p", "--states", "5", "--actions", "3"), 0,
     ("models_checked: 68041656", "states_checked: 335525016")),
    (("countermodel", "E[30] p", "--agents", "30"), 1, ("at: s1",)),
    (("countermodel", "p", "--actions", "1000000000000"), 1, ("at: s1",)),
    (("countermodel", "p | !p", "--actions", "1000000000000"), 2,
     _REACH + "1, states 1"),
    (("countermodel", "p", "--agents", "4"), 1, ("at: s1",)),
    (("countermodel", "E[1] p | !E[1] p", "--agents", "4"), 2,
     _REACH + "4, states 3"),
    (("countermodel", "p | !p", "--agents", "3"), 0,
     ("models_checked: 57012", "states_checked: 169580")),
    (("countermodel", "p | !p", "--agents", "10000", "--states", "1",
      "--actions", "1"), 2, _REACH + "2046, states 1"),
    (("countermodel", "p | !p", "--agents", "1", "--actions", "1",
      "--states", "24"), 2, _LANES + "of agents 1, states 19"),
    (("countermodel", "p | !p", "--agents", "6"), 0,
     ("models_checked: 27469470562413990622815704962380",
      "states_checked: 82408411687168184892032012052396")),
    (("countermodel", "p | !p", "--actions", "9"), 0,
     ("models_checked: 3547772406128789030740749906833338186116",
      "states_checked: 10643317218386357382888461581778214504708")),
    (("countermodel", "p | !p", "--agents", "1", "--actions", "100",
      "--states", "2"), 0,
     ("models_checked: 10141204801825835211973625643200",
      "states_checked: 20282409603651670423947251286200")),
    (("countermodel", "true", "--agents", "1", "--actions", "1",
      "--states", "1500", "--all-states"), 2,
     _FRAMES + "of agents 1, states 1347"),
    (("countermodel", "E[1] E[1] p | !E[1] E[1] p", "--all-states",
      "--states", "5", "--agents", "1", "--actions", "3"), 2,
     _WALK + "of agents 1, states 4"),
    (("countermodel", "!E[] (true & false)", "--agents", "1", "--actions",
      "1", "--states", "1000000000000"), 2, _REACH + "1, states 647"),
    (("laws", "--agents", "30"), 2,
     f"law 'anti-monotonicity' has over {MAX_INSTANTIATIONS} "
     "instantiations at 30 agents"),
    (("laws", "--agents", "1000000000000"), 2,
     f"laws range over at most {MAX_AGENT} agents"),
    (("laws", "--law", "grand-coalition-duality", "--agents", "20000"), 2,
     f"laws range over at most {MAX_AGENT} agents"),
], ids=["agents-4", "laws-agents-4", "agents-12", "states-5-actions-3",
        "agent-30", "actions-1e12", "actions-1e12-exhausting",
        "agents-4-found-early", "named-agents-4", "agents-3",
        "agents-10000", "states-24", "agents-6", "actions-9",
        "actions-100", "all-states-1500", "depth-2-walk",
        "states-1e12-one-profile",
        "laws-agents-30", "laws-agents-1e12", "laws-duality-agents-20000"])
def test_reach_sets_are_bounded_as_blocks_are_reached(capsys, argv, code,
                                                      tail):
    """Each of these ran out of memory (exit 1) or ran on for minutes
    before searches were bounded: a search that passes MAX_REACH_WORK
    steps, or reaches a block of over MAX_VALUATIONS valuations or of
    over 2**MAX_FRAME_BITS frames, or walks over MAX_FRAME_WALK frames of
    a depth-2 formula, is a usage error, while one that
    stops or exhausts before it keeps its verdict.  A search is charged
    a floor per block and the reach sets of the coalitions its formula
    names only, so a formula that names none exhausts a space whose
    every coalition's reach sets would not fit, and whose rows per state
    (agents-6, actions-9, actions-100) are too many for a range() length:
    its counts are products, never lengths.  Each block is charged its
    rows as well, so many states of one profile stop soon
    (states-1e12-one-profile ran 10 s), a depth-2 formula stops before
    the block whose frames it cannot walk (depth-2-walk ran on past 10 s),
    and `laws` builds its coalitions
    as it reaches them, with at most MAX_AGENT agents and
    MAX_INSTANTIATIONS instances a law (the laws-* cases grew without
    bound or ended in a MemoryError)."""
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 2:
        assert (out, err) == ("", f"error: {tail}\n")
    else:
        assert err == ""
        assert out.splitlines()[-len(tail):] == list(tail)


# ---------------------------------------------------------------------------
# Fuzzing main: whatever the input, an exit code of 0, 1 or 2.

_DIGITS = ["0", "1", "2", "3", "10001", "9" * 30, "\u0661", "\u00b2"]
_COALITION = st.lists(st.sampled_from(_DIGITS), max_size=3).map(",".join)
_FORMULA = st.one_of(
    st.recursive(
        st.sampled_from(["p", "q", "r", "true", "false"]),
        lambda f: st.one_of(
            f.map("!{}".format),
            st.tuples(f, st.sampled_from(["&", "|", "->", "<->"]), f).map(
                lambda t: "({} {} {})".format(*t)),
            st.tuples(st.sampled_from("EI"), _COALITION, f).map(
                lambda t: "{}[{}] {}".format(*t))),
        max_leaves=6),
    st.text("pqtrufalsEI[]!&|-<>(), 0123456789\u0661\u00b2", max_size=24))
_MODEL = ["agents 2", "state s", "state t", "init s", "actions 1 a b",
          "actions 2 a", "prop p t", "outcome s a a -> t", "default s -> s",
          "default t -> t"]
_LINE = st.one_of(
    st.sampled_from(_MODEL + ["agents 1", "actions 2 a b", "# note"]),
    st.lists(st.sampled_from(
        ["agents", "state", "init", "actions", "prop", "outcome",
         "default", "->", "s", "t", "a", "b", "p", *_DIGITS]),
        max_size=6).map(" ".join))
# A model file: random lines, or a model's lines with a few more, in any
# order.
_LINES = st.one_of(
    st.lists(_LINE, max_size=10),
    st.lists(_LINE, max_size=2).flatmap(
        lambda extra: st.permutations(_MODEL + extra)))
# Bounds of 1 to 3, 0, and huge agent and action counts; every state
# varies only at 2 or less, where a depth-2 search walks few frames.  A
# huge state count is pinned among the exit-code cases above rather than
# drawn: it takes about a second to reach its bound.
_BOUND = st.one_of(st.integers(1, 3), st.just(0))
_HUGE = st.one_of(_BOUND, st.just(10 ** 12))
# `laws` at one agent, or at agents its bounds refuse, over 1 or 2 states
# and actions: each run takes under a second.
_LAW = st.sampled_from([law.id for law in catalog()] + ["no-such-law"])
_LAWS_BOUNDS = st.tuples(st.sampled_from([1, 30, 10 ** 12]),
                         st.integers(1, 2), st.integers(1, 2))


@st.composite
def _argv(draw, folder):
    command = draw(st.sampled_from(
        ["parse", "translate", "check", "countermodel", "laws"]))
    argv = [command]
    if command == "check":
        path = folder / "m.clm"
        path.write_text("\n".join(draw(_LINES)), encoding="utf-8")
        argv.append(str(path))
    if command == "laws":
        if draw(st.booleans()):
            argv += ["--law", draw(_LAW)]
    else:
        argv.append(draw(_FORMULA))
    if command == "check" and draw(st.booleans()):
        argv += ["--state", draw(st.sampled_from(["s", "t", "u"]))]
    if command in ("countermodel", "laws"):
        bounds = (draw(_LAWS_BOUNDS) if command == "laws"
                  else [draw(_HUGE), draw(_BOUND), draw(_HUGE)])
        for flag, n in zip(("--agents", "--states", "--actions"), bounds):
            argv += [flag, str(n)]
        if max(bounds) <= 2 and draw(st.booleans()):
            argv.append("--all-states")
    if draw(st.booleans()):
        argv.append("--structured")
    return argv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_main_exits_0_1_or_2_on_any_input(tmp_path_factory, data):
    """Random formula text, model files and bounds: main returns 0, 1 or
    2, or argparse exits 2; no other exception escapes."""
    argv = data.draw(_argv(tmp_path_factory.getbasetemp()))
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
