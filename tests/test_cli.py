import argparse
import errno
import gc
import io
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

from helpers import chain_net, check_first_profile_lasso, corpus_net, formula_pool, \
    pool_goal, report_goals, stack_depth
from petrigames import cli, fixtures, solver
from petrigames.cli import build_parser, config_from_args, main, run
from petrigames.errors import InputError
from petrigames.formulas import MAX_NESTING, format_formula
from petrigames.game import build_fairness, build_game, format_lasso, parse_lasso
from petrigames.nets import DEFAULT_STATE_BOUND, format_net, parse_net
from petrigames.solver import parse_profile
from petrigames.unfold import parse_play

GOAL_EITHER = "<<u>> F ((p0 & p3) | (p1 & p4))"
GOAL_BOTH = "<<u>> F (p0 & p3)"


@pytest.fixture()
def f4_path(tmp_path):
    path = tmp_path / "F4.net"
    path.write_text(fixtures.FIG4)
    return str(path)


def invoke(argv):
    parser = build_parser()
    config = config_from_args(parser.parse_args(argv))
    out = io.StringIO()
    code = run(config, stdout=out)
    return code, out.getvalue()


def test_validate_ok(f4_path):
    code, out = invoke(["validate", f4_path])
    assert code == 0
    assert "ok" in out


def test_validate_bad_net(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("net bad\nlocations env u\nplace p @env init\n"
                   "trans t @u pre p post p\n")
    code, out = invoke(["validate", str(bad)])
    assert code == 2
    assert "distribution violated" in out


def test_missing_file_is_input_error():
    code, out = invoke(["validate", "/nonexistent.net"])
    assert code == 2


def test_reach(f4_path):
    code, out = invoke(["reach", f4_path, "--machine"])
    assert code == 0
    assert "states: 6" in out
    assert "edges: 14" in out


def test_unfold(f4_path):
    code, out = invoke(["unfold", f4_path, "--depth", "1"])
    assert code == 0
    assert "3 events" in out


def test_build_game(f4_path):
    code, out = invoke(["build-game", f4_path, "--machine"])
    assert code == 0
    assert "states: 6" in out
    assert "schedule:u" in out


def test_check_satisfied_prints_witness(f4_path):
    code, out = invoke(["check", f4_path, "--formula", GOAL_EITHER,
                        "--engine", "both", "--machine"])
    assert code == 0
    assert "satisfied" in out
    assert "strategy u: {p0,p2} -> t3" in out
    assert "strategy u: {p1,p2} -> t2" in out


def test_check_unsatisfied_prints_counterexample(f4_path):
    code, out = invoke(["check", f4_path, "--formula", GOAL_BOTH])
    assert code == 1
    assert "unsatisfied" in out
    assert "cycle:" in out


def test_check_fragment_violation_exits_2(f4_path):
    code, out = invoke(["check", f4_path, "--formula", "<<u>> X p3"])
    assert code == 2
    assert "X operator" in out


def test_check_formula_file(f4_path, tmp_path):
    ff = tmp_path / "goal.atl"
    for text in ("# the reachability goal\n" + GOAL_EITHER + "\n",
                 GOAL_EITHER + "   # reach either pair\n"):
        ff.write_text(text)
        code, out = invoke(["check", f4_path, "--formula-file", str(ff)])
        assert code == 0, (text, out)


def test_synthesize_requires_coalition_root(f4_path):
    code, out = invoke(["synthesize", f4_path, "--formula", "p0"])
    assert code == 2
    code, out = invoke(["synthesize", f4_path, "--formula", GOAL_EITHER])
    assert code == 0


def test_translate_play_and_back(f4_path, tmp_path):
    play_file = tmp_path / "p.play"
    play_file.write_text("t3\ncycle: t0 t5 t3 t1\n")
    code, out = invoke(["translate", f4_path, "--play", str(play_file)])
    assert code == 0
    assert "(fair)" in out

    lasso_file = tmp_path / "c.lasso"
    lasso_lines = [line for line in out.splitlines()
                   if line and not line.startswith(("--", "1 "))]
    lasso_file.write_text("\n".join(lasso_lines[:2]) + "\n")
    code, out = invoke(["translate", f4_path, "--lasso", str(lasso_file)])
    assert code == 0
    assert "play:" in out


def test_translate_play_stops_at_the_bound(tmp_path):
    net = tmp_path / "chain2.net"
    net.write_text(chain_net(2))
    play = tmp_path / "undo.play"
    play.write_text("a0+a1 ra0+ra1\ncycle: te01 te10\n")   # 2 x 2 orders
    argv = ["translate", str(net), "--play", str(play)]
    assert invoke(argv)[1].startswith("5 computation(s)\n")
    code, out = invoke(argv + ["--bound", "3"])
    assert code == 0
    # three orders, then the fair repair of the first
    assert [line for line in out.splitlines() if line.startswith(("-", "4 "))] == \
        ["4 computation(s)", "-- computation 0", "-- computation 1", "-- computation 2",
         "-- computation 3 (fair)"]


def test_translate_long_step_group_is_not_bounded_by_recursion(tmp_path):
    net = tmp_path / "toggle2.net"
    net.write_text(fixtures.TOGGLE2)
    play = tmp_path / "chained.play"
    play.write_text("+".join(["a01", "a10"] * 50) + "\ncycle: a01 a10 b01 b10\n")
    headroom = 40
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + headroom)
    try:
        code, out = invoke(["translate", str(net), "--play", str(play)])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert out.startswith("1 computation(s)\n")


@pytest.mark.parametrize("opening,closing", [("!", ""), ("(", ")")])
def test_formula_nesting_limit(f4_path, opening, closing):
    def check(levels):
        formula = opening * levels + "p0" + closing * levels
        return invoke(["check", f4_path, "--formula", formula])

    assert check(MAX_NESTING)[0] == 0
    code, out = check(3000)
    assert code == 2
    assert out.startswith(f"error: syntax error at column {MAX_NESTING + 1}: "
                          f"formula nested deeper than {MAX_NESTING} levels\n")


@pytest.mark.parametrize("operator", ["&", "|"])
def test_flat_chain_limit(f4_path, operator):
    def check(operands):
        formula = f" {operator} ".join(["p0"] * operands)
        return invoke(["check", f4_path, "--formula", formula])

    assert check(MAX_NESTING + 1)[0] == 0
    code, out = check(3000)
    assert code == 2
    column = len(f" {operator} ".join(["p0"] * (MAX_NESTING + 1))) + 2
    assert out.startswith(f"error: syntax error at column {column}: "
                          f"formula nested deeper than {MAX_NESTING} levels\n")


def test_machine_witness_keys_keep_arrows_in_names(tmp_path):
    net = tmp_path / "arrow.net"
    net.write_text("net arrow\nlocations env u\nplace p0 @u init\n"
                   "place p1 @env\ntrans a->b @u pre p0 post p1\n"
                   "trans back @env pre p1 post p0\n")
    code, out = invoke(["check", str(net), "--formula", "<<u>> F p1",
                        "--machine"])
    assert code == 0
    assert "strategy u: {p0} -> a->b\n" in out
    assert "witness.u.{p0}: a->b\n" in out
    assert "witness.u.{p1}: pass\n" in out


def test_engine_both_compares_witnesses(f4_path, monkeypatch):
    search = solver._search

    def other_witness(game, q0):
        # a valid flat vector, not the witness: the fixpoint labelling
        # checks it against the other pending states
        witness = search(game, q0)
        return None if witness is None else (0,) * len(witness)

    code, _ = invoke(["check", f4_path, "--formula", GOAL_EITHER, "--engine", "both"])
    assert code == 0
    monkeypatch.setattr(solver, "_search", other_witness)
    code, out = invoke(["check", f4_path, "--formula", GOAL_EITHER, "--engine", "both"])
    assert code == 4
    assert "engines disagree on the witness profile" in out


def test_engine_both_runs_the_fixpoint_region(f4_path, monkeypatch):
    # 'both' labels through the same region as 'fixpoint': an all-free solve
    # that calls every state lost flips the fixpoint verdict, and 'both'
    # sees it
    solve = solver._FairGame.solve

    def everything_lost(self, fixed, roots):
        won, reached = solve(self, fixed, roots)
        return ([True] * len(roots) if all(j is None for j in fixed) else won), reached

    argv = ["check", f4_path, "--formula", "<<u>> G <<u>> F p3"]
    for engine in ("enumerate", "fixpoint", "both"):
        assert invoke(argv + ["--engine", engine])[0] == 0
    monkeypatch.setattr(solver._FairGame, "solve", everything_lost)
    assert invoke(argv + ["--engine", "enumerate"])[0] == 0
    assert invoke(argv + ["--engine", "fixpoint"])[0] == 1
    code, out = invoke(argv + ["--engine", "both"])
    assert code == 4
    assert "engines disagree: enumerate=True fixpoint=False" in out


def test_unsatisfied_evidence_is_the_same_under_every_engine(tmp_path):
    # every engine prints the first profile's lasso and reason; the lasso
    # is checked without the solver
    unsatisfied = 0
    for seed in range(1, 41):
        net = corpus_net(seed)
        path = tmp_path / f"random{seed}.net"
        path.write_text(format_net(net))
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            goal = pool_goal(net, pf)
            reports = {}
            for engine in solver.ENGINES:
                code, out = invoke(["check", str(path), "--machine", "--engine", engine,
                                    "--formula", format_formula(goal)])
                reports[engine] = (code, out.replace(f"engine: {engine}\n", ""))
            if reports["enumerate"][0] != 1:
                continue
            unsatisfied += 1
            assert reports["fixpoint"] == reports["enumerate"] == reports["both"]
            lasso = solver.model_check(g, fcs, goal).counterexample
            assert "fair counterexample lasso:\n" + format_lasso(g, lasso) \
                in reports["enumerate"][1]
            check_first_profile_lasso(g, fcs, pf, lasso, g.initial_state())
    assert unsatisfied > 40


@pytest.mark.parametrize("engine", ["enumerate", "fixpoint"])
def test_plain_check_report_is_the_machine_report_up_to_its_block(tmp_path, engine):
    # without --machine the outermost coalitions are decided at the
    # initial state alone; the report keeps every byte before the block
    # (the wide draw's verdicts are compared in-process, in test_solver.py)
    for net, goals in report_goals(wide_draw=False):
        path = tmp_path / "net.net"
        path.write_text(format_net(net))
        for goal in goals:
            argv = ["check", str(path), "--engine", engine, "--formula", format_formula(goal)]
            code, plain = invoke(argv)
            machine_code, machine = invoke(argv + ["--machine"])
            assert machine_code == code
            assert machine.startswith(plain + "---\n"), (net.name, argv[-1])


@pytest.mark.parametrize("formula, extra, labelled", [
    ("<<u>> F p3", [], ["q0"]),
    ("<<u>> F p3", ["--engine", "fixpoint"], ["q0"]),
    ("!<<u>> F p3", [], ["q0"]),
    ("<<u>> G true & <<u>> F p3", ["--engine", "fixpoint"], ["q0", "q0"]),
    ("<<u>> G <<u>> F p3", [], ["all", "q0"]),
    ("<<u>> G <<u>> F p3", ["--engine", "fixpoint"], ["all", "q0"]),
    ("<<u>> G <<u>> F p3", ["--machine"], ["all", "all"]),
    ("<<u>> G <<u>> F p3", ["--machine", "--engine", "fixpoint"], ["all", "all"]),
    ("<<u>> G <<u>> F p3", ["--engine", "both"], ["all", "all"]),
    ("<<u>> G true & <<u>> F p3", ["--machine"], ["all", "all"]),
    ("!<<u>> F p3", ["--engine", "both"], ["all"]),
])
def test_check_labels_at_every_state_only_for_the_machine_block(f4_path, monkeypatch,
                                                                 formula, extra, labelled):
    # each coalition's labelling, inner ones first: at the initial state
    # alone ("q0") or at every state ("all")
    states = len(build_game(parse_net(fixtures.FIG4)).states)
    sizes = []
    label = solver._label
    monkeypatch.setattr(solver, "_label", lambda game, q0, at, *rest:
                        sizes.append(len(at)) or label(game, q0, at, *rest))
    invoke(["check", f4_path, "--formula", formula] + extra)
    assert sizes == [1 if where == "q0" else states for where in labelled]


def test_export_game_dot(f4_path, tmp_path):
    out_path = tmp_path / "game.dot"
    code, _ = invoke(["export", f4_path, "--what", "game", "--dot",
                      "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.count("->") > 6
    assert text.startswith("digraph game {")


REPORT_NETS = {"F4": fixtures.FIG4, "chain3": chain_net(3),
               **{f"random{s}": format_net(corpus_net(s)) for s in range(1, 11)}}


@pytest.mark.parametrize("name", REPORT_NETS)
@pytest.mark.parametrize("command, export, start", [
    (["reach", "--dot"], ["--what", "reach"], "digraph reachability {\n"),
    (["unfold", "--depth", "3", "--dot"], ["--what", "unfolding", "--depth", "3"],
     "digraph prefix {\n"),
    (["build-game"], ["--what", "fairness"], "players: "),
], ids=["reach", "unfold", "build-game"])
def test_reports_end_with_the_exported_bytes(tmp_path, name, command, export, start):
    # after its summary, a command prints exactly what export prints
    path = tmp_path / "net.net"
    path.write_text(REPORT_NETS[name])
    code, exported = invoke(["export", str(path)] + export)
    assert code == 0
    assert exported.startswith(start)
    code, report = invoke(command[:1] + [str(path)] + command[1:])
    assert code == 0
    assert report.endswith("\n" + exported)


def test_export_unfolding_depth(f4_path, tmp_path):
    out_path = tmp_path / "prefix.dot"
    code, _ = invoke(["export", f4_path, "--what", "unfolding", "--depth", "2",
                      "--dot", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert '"t5.1" [shape=box' in text


def test_export_net_with_contact_exits_2(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("net bad\nlocations env\nplace p @env init\n"
                   "trans t @env pre p post p\n")  # valid, but t's post-set is marked
    code, out = invoke(["export", str(bad), "--what", "game"])
    assert (code, out) == (2, "error: net is not contact-free: transition t has a "
                              "marked post-set at reachable marking {p}\n")


@pytest.mark.parametrize("argv", [
    ["reach"], ["unfold"], ["build-game"], ["check", "--formula", "<<u>> F q"],
    ["synthesize", "--formula", "<<u>> F q"], ["translate", "--play", "{play}"],
    ["export", "--what", "reach"],
], ids=lambda argv: argv[0])
def test_every_command_rejects_a_net_that_parses_but_is_invalid(tmp_path, argv):
    # t is the user's, its input place the environment's
    bad = tmp_path / "bad.net"
    bad.write_text("net bad\nlocations env u\nplace p @env init\nplace q @u\n"
                   "trans t @u pre p post q\n")
    play = tmp_path / "t.play"
    play.write_text("t\n")
    argv = [argv[0], str(bad)] + [a.format(play=play) for a in argv[1:]]
    assert invoke(argv) == (2, "error: invalid net: distribution violated at (p,t): "
                               "input place and transition have different locations\n")


def test_exports_are_byte_identical_across_runs(f4_path, tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    invoke(["export", f4_path, "--what", "game", "--dot", "--out", str(a)])
    invoke(["export", f4_path, "--what", "game", "--dot", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    code1, out1 = invoke(["check", f4_path, "--formula", GOAL_BOTH, "--machine"])
    code2, out2 = invoke(["check", f4_path, "--formula", GOAL_BOTH, "--machine"])
    assert (code1, out1) == (code2, out2)


class CountingStdout(io.StringIO):
    """A stdout that counts its writes."""
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("what", ["reach", "unfolding", "game", "fairness"])
def test_export_to_a_file_writes_the_printed_bytes(f4_path, tmp_path, what):
    argv = ["export", f4_path, "--what", what]
    out = CountingStdout()
    assert run(config_from_args(build_parser().parse_args(argv)), stdout=out) == 0
    assert out.writes > 3          # the report came in chunks
    target = tmp_path / f"{what}.out"
    code, said = invoke(argv + ["--out", str(target)])
    assert (code, said) == (0, f"wrote {target}\n")
    assert target.read_text(encoding="utf-8") == out.getvalue()


class NullStdout:
    """A stdout that keeps nothing but the number of characters written."""
    size = 0

    def write(self, text):
        self.size += len(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


def test_export_holds_no_report_sized_string(tmp_path):
    # the traced peak of an export stays within the game build's peak plus a
    # small part of the report: the report is written as it is rendered, where
    # a joined report and its stripped copy would add two report lengths
    path = tmp_path / "chain6.net"
    path.write_text(chain_net(6))
    net = parse_net(chain_net(6))
    config = config_from_args(build_parser().parse_args(
        ["export", str(path), "--what", "game", "--dot"]))
    out = NullStdout()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_game(net)
        build_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert run(config, stdout=out) == 0
        export_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.size > 1_000_000
    assert export_peak < build_peak + out.size // 10


def test_resource_bound_exit(f4_path):
    code, out = invoke(["reach", f4_path, "--max-states", "2"])
    assert code == 3
    assert "bound" in out


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["reach", "--max-states"],
    ["unfold", "--max-size"],
    ["check", "--formula", GOAL_BOTH, "--max-profiles"],
    ["translate", "--play", "run.play", "--bound"],
], ids=["max-states", "max-size", "max-profiles", "bound"])
def test_bounds_must_be_positive(f4_path, argv, value, capsys):
    argv = [argv[0], f4_path, *argv[1:], value]
    with pytest.raises(InputError, match="^bounds must be positive$"):
        config_from_args(build_parser().parse_args(argv))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: bounds must be positive\n")


def test_a_bound_the_command_does_not_take_is_not_checked(f4_path, monkeypatch):
    monkeypatch.setenv("PETRIGAMES_MAX_PROFILES", "0")
    args = build_parser().parse_args(["reach", f4_path])
    assert config_from_args(args) is args
    assert invoke(["reach", f4_path])[0] == 0


def test_main_entry(f4_path, capsys):
    assert main(["validate", f4_path]) == 0
    capsys.readouterr()


class ClosingStdout(io.StringIO):
    """A stdout whose reader leaves after ``limit`` characters."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("limit", [0, 30, 200])
@pytest.mark.parametrize("argv, expected", [
    (["reach", "--dot", "--machine"], 0),
    (["check", "--formula", GOAL_BOTH, "--machine"], 1),
    (["build-game", "--machine"], 0),
    (["export", "--what", "game", "--dot", "--machine"], 0),
    (["export", "--what", "fairness", "--machine"], 0),
], ids=["reach", "unsatisfied-check", "build-game", "export-game", "export-fairness"])
def test_closed_stdout_keeps_the_exit_code(f4_path, capsys, argv, expected, limit):
    argv = argv[:1] + [f4_path] + argv[1:]
    code, full = invoke(argv)
    assert code == expected
    out = ClosingStdout(limit)
    assert run(config_from_args(build_parser().parse_args(argv)), stdout=out) == expected
    assert full.startswith(out.getvalue())
    assert len(out.getvalue()) <= limit < len(full)
    assert capsys.readouterr() == ("", "")


def test_main_exits_quietly_when_the_reader_leaves(f4_path):
    # the reader closes the pipe before the command writes anything; a
    # buffered stdout meets the closed pipe only at the final flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    child = subprocess.Popen([sys.executable, "-m", "petrigames.cli", "check", f4_path,
                              "--formula", GOAL_BOTH], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    assert child.wait() == 1
    assert child.stderr.read() == b""
    child.stderr.close()


class FullStdout(io.StringIO):
    """A stdout on a full disk: every write fails, or only the flush."""

    def __init__(self, fd, on_write):
        super().__init__()
        self.fd, self.on_write = fd, on_write

    def fileno(self):
        return self.fd

    def write(self, text):
        if self.on_write:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
def test_main_exits_2_when_the_report_cannot_be_written(f4_path, tmp_path, monkeypatch,
                                                        capsys, on_write):
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", FullStdout(handle.fileno(), on_write))
        assert main(["reach", f4_path, "--dot"]) == 2
    assert capsys.readouterr().err == ("error: cannot write the report: "
                                       f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.fixture()
def collector():
    """Restores the cyclic collector's setting after the test."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("missing, expected", [(False, 0), (True, 2)],
                         ids=["ok", "input-error"])
def test_run_pauses_the_collector_and_restores_it(f4_path, monkeypatch, collector,
                                                  enabled, missing, expected):
    from petrigames import cli
    dispatch, seen = cli._dispatch, []
    monkeypatch.setattr(cli, "_dispatch",
                        lambda *args: seen.append(gc.isenabled()) or dispatch(*args))
    (gc.enable if enabled else gc.disable)()
    code, _ = invoke(["reach", "/nonexistent.net" if missing else f4_path])
    assert gc.isenabled() == enabled
    assert code == expected
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_is_restored_after_an_escaping_exception(f4_path, monkeypatch, collector,
                                                           enabled):
    from petrigames import cli

    def partial(config, report):
        report.say("partial")
        raise RuntimeError("escapes")

    monkeypatch.setattr(cli, "_dispatch", partial)
    out = io.StringIO()
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError, match="escapes"):
        run(config_from_args(build_parser().parse_args(["reach", f4_path])), stdout=out)
    assert gc.isenabled() == enabled
    # the escaping exception follows the lines already written
    assert out.getvalue() == "partial\n"


@pytest.mark.parametrize("argv", [
    ["check", "--formula", GOAL_EITHER, "--engine", "both"],
    ["check", "--formula", "<<u>> G <<u>> F p3", "--engine", "fixpoint"],
    ["check", "--formula", GOAL_BOTH, "--max-profiles", "1"],
    ["unfold", "--depth", "3", "--dot"],
    ["export", "--what", "fairness"],
    ["reach", "--max-states", "2"],
], ids=["check-both", "check-nested", "check-bound", "unfold", "export", "reach-bound"])
def test_commands_leave_no_cyclic_garbage(f4_path, collector, argv):
    # the collector is paused while a command runs, so nothing it builds
    # may need the collector to be freed
    config = config_from_args(build_parser().parse_args(argv[:1] + [f4_path] + argv[1:]))
    gc.collect()
    gc.disable()
    run(config, stdout=io.StringIO())
    assert gc.collect() == 0


@pytest.mark.parametrize("machine, expected", [(False, ""), (True, "---\nexit: 0\n")])
def test_a_report_with_no_lines(f4_path, monkeypatch, machine, expected):
    from petrigames import cli
    monkeypatch.setattr(cli, "_dispatch", lambda config, report: 0)
    code, out = invoke(["reach", f4_path] + ["--machine"] * machine)
    assert (code, out) == (0, expected)


def test_lines_said_before_an_error_come_first(f4_path, monkeypatch):
    from petrigames import cli

    def failing(config, report):
        report.say("first")
        report.record("key", "value")
        report.say("second")
        raise InputError("bad input")

    monkeypatch.setattr(cli, "_dispatch", failing)
    code, out = invoke(["reach", f4_path, "--machine"])
    assert code == 2
    assert out == ("first\nsecond\nerror: bad input\n---\n"
                   "key: value\nerror: bad input\nexit: 2\n")


def test_engine_disagreement_exits_4(f4_path, monkeypatch):
    from petrigames import solver
    from petrigames.errors import EngineDisagreement

    def explode(*args, **kwargs):
        raise EngineDisagreement("synthetic disagreement")

    monkeypatch.setattr(solver, "model_check", explode)
    code, out = invoke(["check", f4_path, "--formula", GOAL_EITHER,
                        "--engine", "both"])
    assert code == 4
    assert "disagreement" in out


def test_env_var_overrides_bounds(f4_path, monkeypatch):
    monkeypatch.setenv("PETRIGAMES_MAX_STATES", "2")
    code, out = invoke(["reach", f4_path])
    assert code == 3
    monkeypatch.setenv("PETRIGAMES_MAX_STATES", "nonsense")
    with pytest.raises(InputError):
        build_parser()


def test_malformed_env_bound_exits_2(f4_path, monkeypatch, capsys):
    monkeypatch.setenv("PETRIGAMES_MAX_STATES", "abc")
    assert main(["check", f4_path, "--formula", GOAL_EITHER]) == 2
    err = capsys.readouterr().err
    assert err == "error: environment variable PETRIGAMES_MAX_STATES must be an integer\n"


@pytest.mark.parametrize("extra", ["net again", "locations env u",
                                   "place p0 @env",
                                   "trans t0 @env pre p1 post p0"])
def test_duplicate_declarations_exit_2(tmp_path, extra):
    path = tmp_path / "dup.net"
    path.write_text(fixtures.FIG4 + extra + "\n")   # FIG4 has 13 lines
    code, out = invoke(["validate", str(path)])
    assert code == 2
    assert "net format error on line 14: duplicate" in out


def test_unfold_honours_max_states(tmp_path):
    path = tmp_path / "chain2.net"
    path.write_text(chain_net(2))          # 18 reachable markings
    for argv in (["unfold", str(path)],
                 ["export", str(path), "--what", "unfolding"]):
        code, out = invoke(argv + ["--max-states", "10"])
        assert code == 3
        assert "reachability graph exceeds 10 states" in out
        code, _ = invoke(argv)
        assert code == 0


@pytest.mark.parametrize("kind, argv", [
    ("net", ["validate", "{missing}"]),
    ("formula", ["check", "{f4}", "--formula-file", "{missing}"]),
    ("play", ["translate", "{f4}", "--play", "{missing}"]),
    ("lasso", ["translate", "{f4}", "--lasso", "{missing}"]),
])
def test_unreadable_file_errors_are_pinned(f4_path, tmp_path, kind, argv):
    missing = str(tmp_path / "missing")
    code, out = invoke([a.format(f4=f4_path, missing=missing) for a in argv])
    assert code == 2
    assert out == (f"error: cannot read {kind} file: "
                   f"[Errno 2] No such file or directory: {missing!r}\n")


def test_unwritable_output_error_is_pinned(f4_path, tmp_path):
    target = str(tmp_path / "no-such-dir" / "game.dot")
    code, out = invoke(["export", f4_path, "--what", "game", "--out", target])
    assert code == 2
    assert out == (f"error: cannot write output file: "
                   f"[Errno 2] No such file or directory: {target!r}\n")


@pytest.mark.parametrize("text, message", [
    ("pass@nobody\n", "unknown player in token 'pass@nobody'"),
    ("pass@scheduler\n", "unknown player in token 'pass@scheduler'"),
    ("pass@env\n", "player env has no idle move at {p0,p2}"),
    ("t1\n", "transition t1 is not a move of env at {p0,p2}"),
    ("t0 t0\n", "transition t0 is not a move of env at {p1,p2}"),
    ("cycle: t3 t5 t1\n", "transition t1 is not a move of env at {p0,p2}"),
    ("t0+t3\n", "lasso files take one move per step"),
    # two rejections in one file: the first in file order is reported
    ("t1 t0+t3\n", "transition t1 is not a move of env at {p0,p2}"),
    ("t0+t3 pass@nobody\n", "lasso files take one move per step"),
    ("t0\ncycle: pass@nobody t1+t0\n", "unknown player in token 'pass@nobody'"),
    # a cycle takes one move per step too
    ("t3\ncycle: t0+t5 t3 t1\n", "lasso files take one move per step"),
])
def test_lasso_file_rejections_are_pinned(f4_path, tmp_path, text, message):
    lasso = tmp_path / "bad.lasso"
    lasso.write_text(text)
    code, out = invoke(["translate", f4_path, "--lasso", str(lasso)])
    assert code == 2
    assert out == f"error: {message}\n"


FORMULA_FILE = ["check", "{f4}", "--formula-file", "{file}"]
PLAY_FILE = ["translate", "{f4}", "--play", "{file}"]
NOT_ONE_FORMULA = "error: formula file must hold exactly one formula\n"


@pytest.mark.parametrize("argv, text, expected", [
    (FORMULA_FILE, "# no goal\n\n", NOT_ONE_FORMULA),
    (FORMULA_FILE, f"{GOAL_EITHER}\n{GOAL_BOTH}\n", NOT_ONE_FORMULA),
    (["validate", "{file}"], "net n\nlocations\nplace p @env init\n",
     "error: net format error on line 2: expected: locations <env> [<user> ...]\n"),
    (["validate", "{file}"], "net n\nlocations env\nplace p @env init\n"
     "trans t @env pre p post zz\n",
     "net n: 1 problem(s)\n  - flow arc (t,zz) does not connect a place and a transition\n"),
    (["validate", "{file}"], "net n\nlocations env u u\nplace p @env init\n"
     "trans t @env pre p post p\n", "net n: 1 problem(s)\n  - duplicate location names\n"),
    (PLAY_FILE, "bogus\n", "error: unknown transition 'bogus' in play\n"),
    (PLAY_FILE, "t1\n",
     "error: transition t1 is not enabled at marking {p0,p2} while replaying the play\n"),
    (PLAY_FILE, "t0\ncycle: t1 t5 t3 t0\ntrailing: t3\n",
     "error: trailing events are only meaningful for finite plays\n"),
    # a cycle token is one event: '+' does not split it
    (PLAY_FILE, "t3\ncycle: t0+t5 t3 t1\n", "error: unknown transition 't0+t5' in play\n"),
], ids=["no-formula", "two-formulas", "no-location", "undeclared-arc-end",
        "repeated-location", "unknown-play-transition", "play-not-enabled",
        "trailing-and-cycle", "plus-in-cycle"])
def test_input_checks_exit_2_with_their_message(f4_path, tmp_path, argv, text, expected):
    path = tmp_path / "input"
    path.write_text(text)
    assert invoke([a.format(f4=f4_path, file=path) for a in argv]) == (2, expected)


def _commented(text):
    """``text`` with a comment on a line of its own, a comment after each
    line's content and blank lines around every line."""
    lines = ["# a comment on its own line", ""]
    for line in text.splitlines():
        lines += [f"  {line}   # a comment after content", "   ", "\t# an indented comment"]
    return "\n".join(lines) + "\n\n"


def _read_formula_file(text, tmp_path):
    path = tmp_path / "goal.atl"
    path.write_text(text)
    return invoke(["check", str(tmp_path / "F4.net"), "--formula-file", str(path)])


_G4 = build_game(parse_net(fixtures.FIG4))


@pytest.mark.parametrize("read, bare", [
    (lambda text, _: parse_net(text), fixtures.FIG4),
    (lambda text, _: parse_play(text), "t0+t3 t1\ncycle: t5 t3\ntrailing: t0\n"),
    (lambda text, _: parse_lasso(_G4, text), "t3\ncycle: t0 t5 t3 t1\n"),
    (lambda text, _: parse_profile(_G4, text),
     "strategy u: {p0,p2} -> t3\nstrategy u: {p1,p2} -> t2\n"),
    (_read_formula_file, GOAL_EITHER + "\n"),
], ids=["net", "play", "lasso", "strategy", "formula"])
def test_every_file_format_reads_comments_and_blank_lines_alike(f4_path, tmp_path,
                                                                read, bare):
    # '#' starts a comment and blank lines are skipped, in every format
    assert read(_commented(bare), tmp_path) == read(bare, tmp_path)


@pytest.mark.parametrize("command", [None, "bogus"])
def test_run_rejects_a_namespace_that_names_no_command(f4_path, command):
    out = io.StringIO()
    config = argparse.Namespace(command=command, net=f4_path, machine=False)
    assert run(config, stdout=out) == 2
    assert out.getvalue() == f"error: unknown command {command!r}\n"


@pytest.mark.parametrize("kind, argv", [
    ("net", ["validate", "{bad}"]),
    ("formula", ["check", "{f4}", "--formula-file", "{bad}"]),
    ("play", ["translate", "{f4}", "--play", "{bad}"]),
    ("lasso", ["translate", "{f4}", "--lasso", "{bad}"]),
])
def test_non_utf8_file_errors_are_pinned(f4_path, tmp_path, kind, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"net x\xff\n")
    code, out = invoke([a.format(f4=f4_path, bad=str(bad)) for a in argv])
    assert code == 2
    assert out == (f"error: cannot read {kind} file: 'utf-8' codec can't decode "
                   f"byte 0xff in position 5: invalid start byte\n")


@pytest.mark.parametrize("fixture", ["CONTACT", "FIG4"])
def test_negative_depth_is_rejected_before_the_contact_check(tmp_path, fixture):
    path = tmp_path / "net.net"
    path.write_text(getattr(fixtures, fixture))
    for argv in (["unfold", str(path), "--depth", "-1"],
                 ["export", str(path), "--what", "unfolding", "--depth", "-1"]):
        assert invoke(argv) == (2, "error: depth must be >= 0\n")


# -- the argument parser --------------------------------------------------------------

COMMANDS = ["validate", "reach", "unfold", "build-game", "check", "synthesize",
            "translate", "export"]
ALL_COMMANDS = "{" + ",".join(COMMANDS) + "}"


def parse_exit(argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


def test_check_parse_builds_at_most_two_parsers(f4_path, monkeypatch):
    # a fresh process's first check parse: the kept parsers earlier tests
    # built are dropped, so the count is the cold one
    import argparse
    cli._command_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    args = build_parser().parse_args(["check", f4_path, "--formula", GOAL_EITHER])
    assert args.command == "check" and args.formula == GOAL_EITHER
    assert len(built) == 2


def test_repeated_parse_builds_no_parser(f4_path, monkeypatch):
    argv = ["check", f4_path, "--formula", GOAL_EITHER]
    first = build_parser().parse_args(argv)
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(self)
                        or init(self, *args, **kwargs))
    assert build_parser().parse_args(argv) == first
    assert built == []


def test_kept_parsers_follow_the_bound_variables(f4_path, monkeypatch):
    # each build_parser() reads the variables; a parsers object keeps the
    # defaults it read, however the variables change afterwards
    argv = ["reach", f4_path]
    parsers = []
    for value in ("5", "7", None):
        if value is None:
            monkeypatch.delenv("PETRIGAMES_MAX_STATES")
        else:
            monkeypatch.setenv("PETRIGAMES_MAX_STATES", value)
        parsers.append(build_parser())
        assert build_parser().parse_args(argv).max_states \
            == parsers[-1].parse_args(argv).max_states
    expected = [5, 7, DEFAULT_STATE_BOUND]
    assert [p.parse_args(argv).max_states for p in parsers] == expected


@pytest.mark.parametrize("argv", [["-h"], ["check", "-h"], ["check"]])
def test_kept_parsers_print_at_the_current_width(argv, monkeypatch, capsys):
    # the terminal width is read when help or usage is printed, not when a
    # parser is built
    cold = {}
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        cli._command_parser.cache_clear()
        cold[columns] = parse_exit(argv, capsys)
    assert cold["80"] != cold["120"]
    for columns in ("80", "120", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        assert parse_exit(argv, capsys) == cold[columns]


def test_two_threads_parse_with_one_parsers_object(f4_path, monkeypatch, capsys):
    # no parse changes a kept parser, so threads interleaving their parses
    # through one object each get a one-thread result
    monkeypatch.setenv("COLUMNS", "80")
    cli._command_parser.cache_clear()
    bogus = parse_exit(["bogus"], capsys)
    argvs = [["check", f4_path, "--formula", GOAL_EITHER], ["reach", f4_path, "--dot"]]
    expected = [build_parser().parse_args(argv) for argv in argvs]
    parser = build_parser()
    results = ([], [])

    def parse(i):
        for _ in range(300):
            results[i].append(parser.parse_args(argvs[i]))

    threads = [threading.Thread(target=parse, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == ([expected[0]] * 300, [expected[1]] * 300)
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(["bogus"])
    assert (exit_info.value.code, *capsys.readouterr()) == bogus


def test_help_lists_every_command_in_order(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = parse_exit(["-h"], capsys)
    assert code == 0
    helps = {"validate": "check the net's structural rules",
             "reach": "explicit reachability graph",
             "unfold": "branching-process prefix",
             "build-game": "turn-based asynchronous game structure",
             "check": "model-check an ATL formula",
             "synthesize": "synthesise a memoryless winning profile",
             "translate": "translate plays to fair computations and back",
             "export": "write DOT or tabular artifacts"}
    rows = [line.split() for line in out.splitlines()]
    listed = [(row[0], " ".join(row[1:])) for row in rows if row and row[0] in helps]
    assert listed == list(helps.items())
    assert ALL_COMMANDS in out


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_exits_0(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = parse_exit([command, "-h"], capsys)
    assert code == 0
    assert out.startswith(f"usage: petrigames {command} [-h]")


@pytest.mark.parametrize("argv", [[], ["bogus"], ["bogus", "x.net"], ["chec"]])
def test_missing_or_unknown_command_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, _, err = parse_exit(argv, capsys)
    assert code == 2
    assert ALL_COMMANDS in err
    message = err.splitlines()[-1]
    assert message.startswith("petrigames: error: ")
    if argv:
        assert "argument command: invalid choice" in message
        choices = message.split("choose from", 1)[1]
        assert sorted(COMMANDS, key=choices.index) == COMMANDS
    else:
        assert message.endswith("required: command")


def test_unknown_argument_after_a_command_shows_every_command(f4_path, monkeypatch,
                                                               capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, _, err = parse_exit(["check", f4_path, "--formula", GOAL_EITHER, "--bogus"],
                              capsys)
    assert code == 2
    assert ALL_COMMANDS in err
    assert err.splitlines()[-1] == "petrigames: error: unrecognized arguments: --bogus"


def test_reused_parser_parses_as_fresh_ones(f4_path, capsys):
    argvs = [["check", f4_path, "--formula", GOAL_EITHER, "--engine", "both"],
             ["reach", f4_path, "--dot"],
             ["export", f4_path, "--what", "unfolding", "--depth", "3"],
             ["translate", f4_path, "--play", "p.play"],
             ["check", f4_path, "--formula-file", "goal.atl"]]
    parser = build_parser()
    for argv in argvs:
        assert parser.parse_args(argv) == build_parser().parse_args(argv)
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])
    reused = capsys.readouterr().err
    assert parse_exit(["bogus"], capsys)[2] == reused
