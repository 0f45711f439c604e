"""Command-line front end.

Exit codes: 0 success/satisfied, 1 property unsatisfied, 2 input or
validation error, 3 resource bound exceeded, 4 engine disagreement.

Every command reads a net in the text format of :mod:`petrigames.nets`;
``--machine`` appends a line-oriented ``key: value`` block to the report.
Default bounds can be overridden with the environment variables
``PETRIGAMES_MAX_STATES``, ``PETRIGAMES_MAX_PREFIX``,
``PETRIGAMES_MAX_PROFILES`` and ``PETRIGAMES_MAX_LINEARISATIONS``.
Each command is one ``_COMMANDS`` entry: its help, its arguments and
the handler that runs it on the parsed net.  A parse uses the parser of
the subcommand that argv names, built on first use and kept for the
process, one per set of bound defaults; no parse changes a kept parser.
:func:`run` writes the report as the command renders it, the
``--machine`` block last, and pauses the cyclic garbage collector while
the command runs.  Reports that grow with the state space are written
chunk by chunk as the renderers yield them, never held as one string,
and end where their renderer ends.  A reader that closes stdout early
ends the report there, with the command's exit code; any other error
writing stdout propagates from :func:`run`, and :func:`main` turns it
into one ``error:`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

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
    parse_lasso,
    play_to_computations,
)
from .nets import (
    DEFAULT_STATE_BOUND,
    dot_reachability,
    format_marking,
    parse_net,
    reachability_graph,
    significant_lines,
    validate_net,
)
from .solver import DEFAULT_PROFILE_BOUND, ENGINES, _format_moves, _profile_moves, \
    check_net
from .unfold import DEFAULT_PREFIX_BOUND, dot_prefix, format_play, initial_cut, \
    parse_play, unfold_prefix

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_DISAGREEMENT = 4


def _env_int(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise InputError(f"environment variable {name} must be an integer")


#: (flag, variable, fallback); every ``build_parser()`` call reads the variables
#: again, and the values it reads select the kept parsers
_BOUNDS = (("--max-states", "PETRIGAMES_MAX_STATES", DEFAULT_STATE_BOUND),
           ("--max-size", "PETRIGAMES_MAX_PREFIX", DEFAULT_PREFIX_BOUND),
           ("--max-profiles", "PETRIGAMES_MAX_PROFILES", DEFAULT_PROFILE_BOUND),
           ("--bound", "PETRIGAMES_MAX_LINEARISATIONS", DEFAULT_LINEARISATION_BOUND))
#: ``add_argument`` keywords of the other flags; a flag not here takes none
_FLAGS = {"net": {"help": "net file"},
          "--machine": {"action": "store_true",
                        "help": "append a machine-readable key: value block"},
          "--depth": {"type": int, "default": 2},
          "--dot": {"action": "store_true"},
          "--single-user-simplification": {"action": "store_true"},
          "--engine": {"choices": ENGINES, "default": "enumerate"},
          "--play": {"dest": "play_path"}, "--lasso": {"dest": "lasso_path"},
          "--what": {"choices": ("reach", "unfolding", "game", "fairness"),
                     "required": True}}
_COMMON = ("net", "--machine", "--max-states")
_PREFIX = ("--depth", "--max-size", "--dot")
_SOLVE = _COMMON + (("--formula", "--formula-file"), "--engine",
                    "--single-user-simplification", "--max-profiles")


@functools.lru_cache(maxsize=32)     # nine parsers per set of bound defaults
def _command_parser(command: str | None, bounds: tuple) -> argparse.ArgumentParser:
    """The parser of one command, or of all eight when ``command`` is None
    (help, a missing or unknown command), with ``bounds`` as the defaults
    of the ``_BOUNDS`` flags.  A parse leaves it as it was, so one serves
    every parse with those defaults."""
    parser = argparse.ArgumentParser(
        prog="petrigames",
        description="Games on distributed Petri net unfoldings: build the "
                    "fair turn-based game structure, check ATL goals, "
                    "synthesise memoryless strategies.")
    # a lone command's usage still lists all eight
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser,
        metavar=None if command is None else "{%s}" % ",".join(_COMMANDS))
    flags = {**_FLAGS, **{flag: {"type": int, "default": default}
                          for (flag, _, _), default in zip(_BOUNDS, bounds)}}
    for name in _COMMANDS if command is None else (command,):
        help_text, arguments, _ = _COMMANDS[name]
        p = commands.add_parser(name, help=help_text)
        for entry in arguments:
            group = isinstance(entry, tuple)
            target = p.add_mutually_exclusive_group(required=True) if group else p
            for flag in entry if group else (entry,):
                target.add_argument(flag, **flags.get(flag, {}))
    return parser


class _Parsers:
    """Parses argv with the kept parser of the command it names."""

    def __init__(self, bounds: tuple):
        self.bounds = bounds

    def parse_args(self, args=None, namespace=None) -> argparse.Namespace:
        args = sys.argv[1:] if args is None else list(args)
        command = args[0] if args and args[0] in _COMMANDS else None
        return _command_parser(command, self.bounds).parse_args(args, namespace)


def build_parser() -> _Parsers:
    """The parsers for the bound defaults the ``PETRIGAMES_MAX_*``
    variables give now; a malformed one raises ``InputError`` here.  Each
    command's parser is built once per process for each set of defaults,
    so a call per command costs only the reading of the variables."""
    return _Parsers(tuple(_env_int(variable, fallback)
                          for _, variable, fallback in _BOUNDS))


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The parsed arguments, once every bound the command takes is
    positive; ``InputError`` otherwise."""
    for flag, _, _ in _BOUNDS:
        if getattr(args, flag[2:].replace("-", "_"), 1) <= 0:
            raise InputError("bounds must be positive")
    return args


class Report:
    """Writes the human-readable report as it goes and keeps the machine
    block for the end.  Once the reader has closed stdout, the rest of
    the report is dropped and the command still runs to its exit code;
    any other error writing stdout propagates."""

    def __init__(self, machine: bool, stdout):
        self.stdout = stdout
        self.pairs: list[tuple[str, str]] = []
        self.machine = machine

    def say(self, text: str) -> None:
        self.write((text, "\n"))

    def write(self, chunks) -> None:
        """Write each string of ``chunks`` as it comes: whole lines, each
        ending in its own newline."""
        if self.stdout is None:
            return
        try:
            self.stdout.writelines(chunks)
        except BrokenPipeError:
            self.stdout = None

    def record(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.pairs.append((key, str(value)))

    def close(self) -> None:
        """Write the machine block."""
        if self.machine:
            self.say("---")
            for k, v in self.pairs:
                self.say(f"{k}: {v}")


#: (exception, report prefix, exit code) of each failure a command reports
_FAILURES = ((InputError, "error", EXIT_INPUT),
             (BoundExceeded, "resource bound exceeded", EXIT_RESOURCE),
             (EngineDisagreement, "engine disagreement", EXIT_DISAGREEMENT))


def run(config: argparse.Namespace, stdout=None) -> int:
    """Execute one command; returns the exit code and writes the report to
    ``stdout`` as it goes.  An ``OSError`` writing ``stdout``, other than
    a closed pipe, propagates.  The cyclic garbage collector is paused
    while the command runs: what it builds is acyclic, so reference
    counting frees it."""
    report = Report(config.machine, stdout or sys.stdout)
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = _dispatch(config, report)
    except tuple(kind for kind, _, _ in _FAILURES) as err:
        prefix, code = next((p, c) for kind, p, c in _FAILURES if isinstance(err, kind))
        report.say(f"{prefix}: {err}")
        report.record("error", str(err))
    finally:
        if collecting:
            gc.enable()
    report.record("exit", code)
    report.close()
    return code


def _read(path: str, kind: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {kind} file: {err}")


def _load_formula(config: argparse.Namespace):
    if config.formula is not None:
        return parse_formula(config.formula)
    lines = [line for _, line in significant_lines(_read(config.formula_file, "formula"))]
    if len(lines) != 1:
        raise InputError("formula file must hold exactly one formula")
    return parse_formula(lines[0])


def _dispatch(config: argparse.Namespace, report: Report) -> int:
    net = parse_net(_read(config.net, "net"))
    report.record("command", config.command)
    report.record("net", net.name)
    if config.command not in _COMMANDS:
        raise InputError(f"unknown command {config.command!r}")
    return _COMMANDS[config.command][2](config, report, net)


def _validate(config: argparse.Namespace, report: Report, net) -> int:
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


def _reach(config: argparse.Namespace, report: Report, net) -> int:
    graph = reachability_graph(net, max_states=config.max_states)
    edges = sum(map(len, graph.out))
    report.say(f"net {net.name}: {len(graph.states)} reachable markings, "
               f"{edges} edges")
    labels = [format_marking(m) for m in graph.states]
    report.write(["".join([f"  {label}\n" for label in labels])])
    report.record("states", len(graph.states))
    report.record("edges", edges)
    if config.dot:
        report.write(dot_reachability(graph, labels))
    return EXIT_OK


def _prefix(config: argparse.Namespace, net):
    """The prefix the prefix options ask for, and its DOT chunks."""
    bp = unfold_prefix(net, config.depth, max_size=config.max_size,
                       max_states=config.max_states)
    return bp, dot_prefix(bp, initial_cut(bp))


def _unfold(config: argparse.Namespace, report: Report, net) -> int:
    bp, dot = _prefix(config, net)
    report.say(f"prefix of depth {config.depth}: {len(bp.conditions)} "
               f"conditions, {len(bp.events)} events")
    report.record("conditions", len(bp.conditions))
    report.record("events", len(bp.events))
    if config.dot:
        report.write(dot)
    return EXIT_OK


def _build_game(config: argparse.Namespace, report: Report, net) -> int:
    g = build_game(net, single_user_simplification=config.single_user_simplification,
                   max_states=config.max_states)
    constraints = build_fairness(net, g)
    report.say(f"game structure over {len(g.states)} states, "
               f"{g.player_count} players, {len(constraints)} fairness "
               f"constraints")
    report.write(fairness_table(g, constraints))
    report.record("states", len(g.states))
    report.record("players", g.player_count)
    report.record("constraints", len(constraints))
    return EXIT_OK


def _check(config: argparse.Namespace, report: Report, net) -> int:
    formula = _load_formula(config)
    if config.command == "synthesize" and not isinstance(formula, Coalition):
        raise InputError("synthesize needs a formula with an outermost "
                         "coalition quantifier")
    # the plain report reads the verdict at the initial state only; the
    # machine block prints every state set, and both cross-checks them
    g, _, verdict = check_net(
        net, formula, engine=config.engine,
        single_user_simplification=config.single_user_simplification,
        max_states=config.max_states, max_profiles=config.max_profiles,
        every_state=config.machine or config.engine == "both")
    report.record("formula", format_formula(formula))
    report.record("engine", config.engine)
    report.record("satisfied", verdict.satisfied)
    state_word = "satisfied" if verdict.satisfied else "unsatisfied"
    report.say(f"{format_formula(formula)}: {state_word} at "
               f"{format_marking(net.initial)}")
    if verdict.witness is not None:
        moves = list(_profile_moves(g, verdict.witness))
        report.write(("witness strategy:\n", _format_moves(moves)))
        for user, marking, move in moves:
            report.record(f"witness.{user}.{marking}", move)
    if verdict.counterexample is not None:
        text = format_lasso(g, verdict.counterexample)
        report.write(("fair counterexample lasso:\n", text))
        report.record("counterexample", text.replace("\n", " / ").strip())
    if verdict.reason and not verdict.satisfied:
        report.record("reason", verdict.reason)
    for key, states in verdict.state_sets.items():
        report.record(f"states[{key}]",
                      " ".join(format_marking(m) for m in states))
    return EXIT_OK if verdict.satisfied else EXIT_UNSATISFIED


def _translate(config: argparse.Namespace, report: Report, net) -> int:
    g = build_game(net, max_states=config.max_states)
    constraints = build_fairness(net, g)
    if config.play_path is not None:
        play = parse_play(_read(config.play_path, "play"))
        lassos = play_to_computations(g, constraints, play, bound=config.bound)
        report.say(f"{len(lassos)} computation(s)")
        report.record("computations", len(lassos))
        for i, (lam, fair) in enumerate(zip(lassos, lassos.fair)):
            report.write((f"-- computation {i}{' (fair)' if fair else ''}\n",
                          format_lasso(g, lam)))
            report.record(f"fair.{i}", fair)
        return EXIT_OK
    lasso = parse_lasso(g, _read(config.lasso_path, "lasso"))
    text = format_play(computation_to_play(g, constraints, lasso))
    report.write(("play:\n", text))
    report.record("play", text.replace("\n", " / ").strip())
    return EXIT_OK


def _export(config: argparse.Namespace, report: Report, net) -> int:
    if config.what == "reach":
        payload = dot_reachability(reachability_graph(net, max_states=config.max_states))
    elif config.what == "unfolding":
        payload = _prefix(config, net)[1]
    else:
        g = build_game(net, max_states=config.max_states)
        payload = dot_game(g) if config.what == "game" \
            else fairness_table(g, build_fairness(net, g))
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.writelines(payload)
        except OSError as err:
            raise InputError(f"cannot write output file: {err}")
        report.say(f"wrote {config.out}")
        report.record("out", config.out)
    else:
        report.write(payload)
    report.record("what", config.what)
    return EXIT_OK


#: command -> (help, arguments in usage order, handler); a tuple of flags
#: is a required mutually exclusive group
_COMMANDS = {
    "validate": ("check the net's structural rules", _COMMON, _validate),
    "reach": ("explicit reachability graph", _COMMON + ("--dot",), _reach),
    "unfold": ("branching-process prefix", _COMMON + _PREFIX, _unfold),
    "build-game": ("turn-based asynchronous game structure",
                   _COMMON + ("--single-user-simplification",), _build_game),
    "check": ("model-check an ATL formula", _SOLVE, _check),
    "synthesize": ("synthesise a memoryless winning profile", _SOLVE, _check),
    "translate": ("translate plays to fair computations and back",
                  _COMMON + (("--play", "--lasso"), "--bound"), _translate),
    "export": ("write DOT or tabular artifacts",
               _COMMON + ("--what",) + _PREFIX + ("--out",), _export),
}


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
    except InputError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT
    try:
        code = run(config)
        sys.stdout.flush()
    except OSError as err:
        # what is still buffered goes nowhere, so that the flush at exit
        # neither fails nor changes the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(err, BrokenPipeError):  # not just the reader leaving
            sys.stderr.write(f"error: cannot write the report: {err}\n")
            return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
