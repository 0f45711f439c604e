"""Command-line front end.

Exit codes: 0 success/satisfied, 1 property unsatisfied, 2 input or
validation error, 3 resource bound exceeded, 4 engine disagreement.

Every command reads a net in the text format of :mod:`petrigames.nets`;
``--machine`` appends a line-oriented ``key: value`` block to the report.
Default bounds can be overridden with the environment variables
``PETRIGAMES_MAX_STATES``, ``PETRIGAMES_MAX_PREFIX``,
``PETRIGAMES_MAX_PROFILES`` and ``PETRIGAMES_MAX_LINEARISATIONS``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import BoundExceeded, EngineDisagreement, InputError
from .formulas import Coalition, format_formula, parse_formula
from .game import (
    DEFAULT_LINEARISATION_BOUND,
    build_fairness,
    build_game,
    computation_to_play,
    dot_game,
    fairness_table,
    format_lasso,
    lasso_is_fair,
    parse_lasso,
    play_to_computations,
)
from .nets import (
    DEFAULT_STATE_BOUND,
    dot_reachability,
    format_marking,
    parse_net,
    reachability_graph,
    validate_net,
)
from .solver import DEFAULT_PROFILE_BOUND, ENGINES, Verdict, _profile_moves, \
    format_profile, model_check
from .unfold import DEFAULT_PREFIX_BOUND, dot_prefix, format_play, initial_cut, \
    parse_play, unfold_prefix

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_DISAGREEMENT = 4


@dataclass
class RunConfig:
    command: str
    net_path: str
    formula: Optional[str] = None
    formula_file: Optional[str] = None
    depth: int = 2
    max_states: int = DEFAULT_STATE_BOUND
    max_prefix: int = DEFAULT_PREFIX_BOUND
    max_profiles: int = DEFAULT_PROFILE_BOUND
    bound: int = DEFAULT_LINEARISATION_BOUND
    engine: str = "enumerate"
    single_user_simplification: bool = False
    machine: bool = False
    what: Optional[str] = None
    dot: bool = False
    out: Optional[str] = None
    play_path: Optional[str] = None
    lasso_path: Optional[str] = None


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="petrigames",
        description="Games on distributed Petri net unfoldings: build the "
                    "fair turn-based game structure, check ATL goals, "
                    "synthesise memoryless strategies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("net", help="net file")
        p.add_argument("--machine", action="store_true",
                       help="append a machine-readable key: value block")
        p.add_argument("--max-states", type=int,
                       default=_env_int("PETRIGAMES_MAX_STATES", DEFAULT_STATE_BOUND))

    def prefix_options(p):
        p.add_argument("--depth", type=int, default=2)
        p.add_argument("--max-size", type=int,
                       default=_env_int("PETRIGAMES_MAX_PREFIX", DEFAULT_PREFIX_BOUND))
        p.add_argument("--dot", action="store_true")

    p = sub.add_parser("validate", help="check the net's structural rules")
    common(p)

    p = sub.add_parser("reach", help="explicit reachability graph")
    common(p)
    p.add_argument("--dot", action="store_true")

    p = sub.add_parser("unfold", help="branching-process prefix")
    common(p)
    prefix_options(p)

    p = sub.add_parser("build-game", help="turn-based asynchronous game structure")
    common(p)
    p.add_argument("--single-user-simplification", action="store_true")

    for name in ("check", "synthesize"):
        p = sub.add_parser(name, help="model-check an ATL formula" if name == "check"
                           else "synthesise a memoryless winning profile")
        common(p)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--formula")
        group.add_argument("--formula-file")
        p.add_argument("--engine", choices=ENGINES, default="enumerate")
        p.add_argument("--single-user-simplification", action="store_true")
        p.add_argument("--max-profiles", type=int,
                       default=_env_int("PETRIGAMES_MAX_PROFILES", DEFAULT_PROFILE_BOUND))

    p = sub.add_parser("translate",
                       help="translate plays to fair computations and back")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--play", dest="play_path")
    group.add_argument("--lasso", dest="lasso_path")
    p.add_argument("--bound", type=int,
                   default=_env_int("PETRIGAMES_MAX_LINEARISATIONS", DEFAULT_LINEARISATION_BOUND))

    p = sub.add_parser("export", help="write DOT or tabular artifacts")
    common(p)
    p.add_argument("--what", choices=("reach", "unfolding", "game", "fairness"),
                   required=True)
    prefix_options(p)
    p.add_argument("--out")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, net_path=args.net)
    for name in ("formula", "formula_file", "depth", "max_states", "max_profiles",
                 "bound", "engine", "single_user_simplification", "machine",
                 "what", "dot", "out", "play_path", "lasso_path"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "max_size"):
        cfg.max_prefix = args.max_size
    if cfg.bound <= 0 or cfg.max_states <= 0 or cfg.max_prefix <= 0 \
            or cfg.max_profiles <= 0:
        raise InputError("bounds must be positive")
    return cfg


class Report:
    """Collects the human-readable report and the machine block."""

    def __init__(self, machine: bool):
        self.lines: list[str] = []
        self.pairs: list[tuple[str, str]] = []
        self.machine = machine

    def say(self, text: str = "") -> None:
        self.lines.append(text)

    def record(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.pairs.append((key, str(value)))

    def render(self) -> str:
        out = list(self.lines)
        if self.machine:
            out.append("---")
            out.extend(f"{k}: {v}" for k, v in self.pairs)
        return "\n".join(out) + "\n"


def run(config: RunConfig, stdout=None) -> int:
    """Execute one command; returns the exit code and prints the report."""
    stdout = stdout or sys.stdout
    report = Report(config.machine)
    try:
        code = _dispatch(config, report)
    except InputError as err:
        report.say(f"error: {err}")
        report.record("error", str(err))
        code = EXIT_INPUT
    except BoundExceeded as err:
        report.say(f"resource bound exceeded: {err}")
        report.record("error", str(err))
        code = EXIT_RESOURCE
    except EngineDisagreement as err:
        report.say(f"engine disagreement: {err}")
        report.record("error", str(err))
        code = EXIT_DISAGREEMENT
    except OSError as err:
        report.say(f"error: {err}")
        report.record("error", str(err))
        code = EXIT_INPUT
    report.record("exit", code)
    stdout.write(report.render())
    return code


def _read(path: str, kind: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise InputError(f"cannot read {kind} file: {err}")


def _load_formula(config: RunConfig):
    if config.formula is not None:
        return parse_formula(config.formula)
    lines = [line for line in _read(config.formula_file, "formula").splitlines()
             if line.split("#", 1)[0].strip()]
    if len(lines) != 1:
        raise InputError("formula file must hold exactly one formula")
    return parse_formula(lines[0])


def _dispatch(config: RunConfig, report: Report) -> int:
    net = parse_net(_read(config.net_path, "net"))
    report.record("command", config.command)
    report.record("net", net.name)

    if config.command == "validate":
        diags = validate_net(net)
        report.record("valid", not diags)
        if diags:
            report.say(f"net {net.name}: {len(diags)} problem(s)")
            for d in diags:
                report.say(f"  - {d}")
                report.record("diagnostic", d)
            return EXIT_INPUT
        report.say(f"net {net.name}: ok "
                   f"({len(net.places)} places, {len(net.transitions)} transitions, "
                   f"{len(net.users)} user(s))")
        return EXIT_OK

    if config.command == "reach":
        graph = reachability_graph(net, max_states=config.max_states)
        edges = sum(map(len, graph.out))
        report.say(f"net {net.name}: {len(graph.states)} reachable markings, "
                   f"{edges} edges")
        for m in graph.states:
            report.say(f"  {format_marking(m)}")
        report.record("states", len(graph.states))
        report.record("edges", edges)
        if config.dot:
            report.say(dot_reachability(graph))
        return EXIT_OK

    if config.command == "unfold":
        if config.depth < 0:
            raise InputError("depth must be >= 0")
        bp = unfold_prefix(net, config.depth, max_size=config.max_prefix,
                           max_states=config.max_states)
        report.say(f"prefix of depth {config.depth}: {len(bp.conditions)} "
                   f"conditions, {len(bp.events)} events")
        report.record("conditions", len(bp.conditions))
        report.record("events", len(bp.events))
        if config.dot:
            report.say(dot_prefix(bp, initial_cut(bp)))
        return EXIT_OK

    if config.command == "build-game":
        g = build_game(net, single_user_simplification=config.single_user_simplification,
                       max_states=config.max_states)
        constraints = build_fairness(net, g)
        report.say(f"game structure over {len(g.states)} states, "
                   f"{g.player_count} players, {len(constraints)} fairness "
                   f"constraints")
        report.say(fairness_table(g, constraints))
        report.record("states", len(g.states))
        report.record("players", g.player_count)
        report.record("constraints", len(constraints))
        return EXIT_OK

    if config.command in ("check", "synthesize"):
        return _check(config, report, net)

    if config.command == "translate":
        return _translate(config, report, net)

    if config.command == "export":
        return _export(config, report, net)

    raise InputError(f"unknown command {config.command!r}")


def _check(config: RunConfig, report: Report, net) -> int:
    formula = _load_formula(config)
    if config.command == "synthesize" and not isinstance(formula, Coalition):
        raise InputError("synthesize needs a formula with an outermost "
                         "coalition quantifier")
    g = build_game(net, single_user_simplification=config.single_user_simplification,
                   max_states=config.max_states)
    constraints = build_fairness(net, g)
    verdict: Verdict = model_check(g, constraints, formula,
                                   engine=config.engine,
                                   max_profiles=config.max_profiles)
    report.record("formula", format_formula(formula))
    report.record("engine", config.engine)
    report.record("satisfied", verdict.satisfied)
    state_word = "satisfied" if verdict.satisfied else "unsatisfied"
    report.say(f"{format_formula(formula)}: {state_word} at "
               f"{format_marking(net.initial)}")
    if verdict.witness is not None:
        report.say("witness strategy:")
        report.say(format_profile(g, verdict.witness).rstrip("\n"))
        for user, marking, move in _profile_moves(g, verdict.witness):
            report.record(f"witness.{user}.{marking}", move)
    if verdict.counterexample is not None:
        text = format_lasso(g, verdict.counterexample)
        report.say("fair counterexample lasso:")
        report.say(text.rstrip("\n"))
        report.record("counterexample", text.replace("\n", " / ").strip())
    if verdict.reason and not verdict.satisfied:
        report.record("reason", verdict.reason)
    for key, states in verdict.state_sets.items():
        report.record(f"states[{key}]",
                      " ".join(format_marking(m) for m in states))
    return EXIT_OK if verdict.satisfied else EXIT_UNSATISFIED


def _translate(config: RunConfig, report: Report, net) -> int:
    g = build_game(net, max_states=config.max_states)
    constraints = build_fairness(net, g)
    if config.play_path is not None:
        play = parse_play(_read(config.play_path, "play"))
        lassos = play_to_computations(net, g, constraints, play,
                                      bound=config.bound)
        report.say(f"{len(lassos)} computation(s)")
        report.record("computations", len(lassos))
        for i, lam in enumerate(lassos):
            fair = lasso_is_fair(g, constraints, lam).fair
            report.say(f"-- computation {i}{' (fair)' if fair else ''}")
            report.say(format_lasso(g, lam).rstrip("\n"))
            report.record(f"fair.{i}", fair)
        return EXIT_OK
    lasso = parse_lasso(g, _read(config.lasso_path, "lasso"))
    text = format_play(computation_to_play(net, g, constraints, lasso))
    report.say("play:")
    report.say(text.rstrip("\n"))
    report.record("play", text.replace("\n", " / ").strip())
    return EXIT_OK


def _export(config: RunConfig, report: Report, net) -> int:
    if config.what == "reach":
        graph = reachability_graph(net, max_states=config.max_states)
        payload = dot_reachability(graph)
    elif config.what == "unfolding":
        bp = unfold_prefix(net, config.depth, max_size=config.max_prefix,
                           max_states=config.max_states)
        payload = dot_prefix(bp, initial_cut(bp))
    else:
        g = build_game(net, max_states=config.max_states)
        payload = dot_game(g) if config.what == "game" \
            else fairness_table(g, build_fairness(net, g))
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as err:
            raise InputError(f"cannot write output file: {err}")
        report.say(f"wrote {config.out}")
        report.record("out", config.out)
    else:
        report.say(payload.rstrip("\n"))
    report.record("what", config.what)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except InputError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
