import io
import sys

import pytest

from helpers import chain_net, stack_depth
from petrigames import fixtures, solver
from petrigames.cli import build_parser, config_from_args, main, run
from petrigames.formulas import MAX_NESTING
from petrigames.solver import GameProfile

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
    ff.write_text("# the reachability goal\n" + GOAL_EITHER + "\n")
    code, out = invoke(["check", f4_path, "--formula-file", str(ff)])
    assert code == 0


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
    fixpoint = solver.synthesize_fixpoint

    def other_witness(*args, **kwargs):
        verdict = fixpoint(*args, **kwargs)
        if verdict.witness is not None:
            verdict.witness = GameProfile(((),))
        return verdict

    code, _ = invoke(["check", f4_path, "--formula", GOAL_EITHER, "--engine", "both"])
    assert code == 0
    monkeypatch.setattr(solver, "synthesize_fixpoint", other_witness)
    code, out = invoke(["check", f4_path, "--formula", GOAL_EITHER, "--engine", "both"])
    assert code == 4
    assert "engines disagree on the witness profile" in out


def test_export_game_dot(f4_path, tmp_path):
    out_path = tmp_path / "game.dot"
    code, _ = invoke(["export", f4_path, "--what", "game", "--dot",
                      "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.count("->") > 6
    assert text.startswith("digraph game {")


def test_export_unfolding_depth(f4_path, tmp_path):
    out_path = tmp_path / "prefix.dot"
    code, _ = invoke(["export", f4_path, "--what", "unfolding", "--depth", "2",
                      "--dot", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert '"t5.1" [shape=box' in text


def test_export_invalid_net_exits_2(tmp_path):
    bad = tmp_path / "bad.net"
    bad.write_text("net bad\nlocations env\nplace p @env init\n"
                   "trans t @env pre p post p\n")  # not contact-free at {p}? valid but p in pre&post
    code, out = invoke(["export", str(bad), "--what", "game"])
    assert code == 2


def test_exports_are_byte_identical_across_runs(f4_path, tmp_path):
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    invoke(["export", f4_path, "--what", "game", "--dot", "--out", str(a)])
    invoke(["export", f4_path, "--what", "game", "--dot", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    code1, out1 = invoke(["check", f4_path, "--formula", GOAL_BOTH, "--machine"])
    code2, out2 = invoke(["check", f4_path, "--formula", GOAL_BOTH, "--machine"])
    assert (code1, out1) == (code2, out2)


def test_resource_bound_exit(f4_path):
    code, out = invoke(["reach", f4_path, "--max-states", "2"])
    assert code == 3
    assert "bound" in out


def test_bounds_must_be_positive(f4_path):
    parser = build_parser()
    args = parser.parse_args(["reach", f4_path, "--max-states", "0"])
    from petrigames.errors import InputError
    with pytest.raises(InputError):
        config_from_args(args)


def test_main_entry(f4_path, capsys):
    assert main(["validate", f4_path]) == 0
    capsys.readouterr()


def test_engine_disagreement_exits_4(f4_path, monkeypatch):
    from petrigames import cli
    from petrigames.errors import EngineDisagreement

    def explode(*args, **kwargs):
        raise EngineDisagreement("synthetic disagreement")

    monkeypatch.setattr(cli, "model_check", explode)
    code, out = invoke(["check", f4_path, "--formula", GOAL_EITHER,
                        "--engine", "both"])
    assert code == 4
    assert "disagreement" in out


def test_env_var_overrides_bounds(f4_path, monkeypatch):
    monkeypatch.setenv("PETRIGAMES_MAX_STATES", "2")
    code, out = invoke(["reach", f4_path])
    assert code == 3
    monkeypatch.setenv("PETRIGAMES_MAX_STATES", "nonsense")
    from petrigames.errors import InputError
    with pytest.raises(InputError):
        build_parser()


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
])
def test_lasso_file_rejections_are_pinned(f4_path, tmp_path, text, message):
    lasso = tmp_path / "bad.lasso"
    lasso.write_text(text)
    code, out = invoke(["translate", f4_path, "--lasso", str(lasso)])
    assert code == 2
    assert out == f"error: {message}\n"
