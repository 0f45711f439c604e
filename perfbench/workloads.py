"""The four benchmark workloads: inputs, CLI commands and output checks.

A workload's ``setup`` generates its input files from the seed and
returns the commands to run, each an argv for the ``petrigames`` CLI.
Its ``check`` runs after the timed region, on the first pass's exit
codes and reports, and returns one message per op that is wrong.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import chain as chains
from petrigames import fixtures
from petrigames.formulas import (And, Coalition, Not, Or, PathFormula, Prop,
                                 TrueConst, format_formula, parse_formula)
from petrigames.game import build_fairness, build_game, lasso_is_fair, parse_lasso
from petrigames.nets import format_net, parse_net
from petrigames.randnet import random_net
from petrigames.solver import synthesize_fixpoint

HERE = Path(__file__).resolve().parent
UNFOLD_REFERENCE = HERE / "unfold_reference.json"

F4_SAT = "<<u>> F ((p0 & p3) | (p1 & p4))"
F4_UNSAT = "<<u>> F (p0 & p3)"
#: the README's witness for F4_SAT, written out by hand
F4_WITNESS = ("strategy u: {p0,p2} -> t3", "strategy u: {p1,p2} -> t2")

SIZES = {
    # corpus: nets; depth: corpus-unfold depth; solve: chain sizes of the
    # sat, unsat and nested chain-solve goals; pipeline: chain-pipeline k
    "full": {"corpus": 200, "depth": 6, "solve": (2, 3, 2), "pipeline": 7},
    "tiny": {"corpus": 5, "depth": 2, "solve": (1, 1, 1), "pipeline": 1},
}


class Workload:
    name = ""
    slots = 0     # choice slots of the games its check ops solve

    def summary(self) -> str:
        return ""


class Op:
    __slots__ = ("argv", "label")

    def __init__(self, argv: list, label: str):
        self.argv = argv
        self.label = label


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def net_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def header_counts(report: str, pattern: str):
    match = re.match(pattern, report)
    return tuple(int(x) for x in match.groups()) if match else None


def lasso_lines(report: str) -> str:
    """The counterexample lasso a ``check`` report prints, as a lasso file."""
    _, found, rest = report.partition("fair counterexample lasso:\n")
    return rest if found else ""


def choice_slots(g) -> int:
    """(user, state) pairs with more than one move: the slots the fixpoint
    engine assigns."""
    return sum(1 for a in range(g.user_count) for qi in range(len(g.states))
               if g.d(a, qi) > 1)


def check_lasso(net, g, report: str) -> str:
    """Empty when the printed counterexample parses back and is fair."""
    text = lasso_lines(report)
    if not text:
        return "no counterexample lasso printed"
    if not lasso_is_fair(g, build_fairness(net, g), parse_lasso(g, text)).fair:
        return "printed counterexample lasso is not fair"
    return ""


# -- corpora ------------------------------------------------------------------------

def formula_pool(net) -> tuple:
    """Five X-free grand-coalition path formulas over the net's places
    (the acceptance suite's criterion 6 pool, kept here as a copy)."""
    rng = random.Random(f"pool:{net.name}")
    places = sorted(net.places)

    def pick():
        return Prop(rng.choice(places))

    return (
        PathFormula("G", TrueConst()),
        PathFormula("U", TrueConst(), pick()),
        PathFormula("G", Not(pick())),
        PathFormula("U", Or(pick(), pick()), pick()),
        PathFormula("U", TrueConst(), And(pick(), pick())),
    )


def coalition(net, pf: PathFormula) -> Coalition:
    args = (pf.left,) if pf.op == "G" else (pf.left, pf.right)
    return Coalition(tuple(net.users), pf.op, args)


def write_corpus(workdir: Path, seed: int, count: int) -> list:
    """(net, file text, path) for ``random_net(seed) ... random_net(seed+count-1)``."""
    corpus = []
    for i in range(count):
        net = random_net(seed + i)
        text = format_net(net)
        corpus.append((net, text, write(workdir / f"net{i:03d}.net", text)))
    return corpus


class CorpusCheck(Workload):
    """``check`` with the default (enumerate) engine: every corpus net
    against the five pool goals."""

    name = "corpus-check"

    def setup(self, workdir: Path, seed: int, size: dict) -> list:
        self.corpus = write_corpus(workdir, seed, size["corpus"])
        self.goals = []
        ops = []
        for net, _, path in self.corpus:
            for pf in formula_pool(net):
                text = format_formula(coalition(net, pf))
                self.goals.append((net, pf))
                ops.append(Op(["check", path, "--formula", text],
                              f"check {net.name} {text}"))
        return ops

    def check(self, ops: list, codes: list, reports: list) -> dict:
        """Verdicts against ``synthesize_fixpoint`` at q0, the independent
        engine (the CLI's default engine is enumerate)."""
        failures = {}
        games = {}
        self.sat = self.unsat = self.slots = 0
        for i, (net, pf) in enumerate(self.goals):
            if id(net) not in games:
                g = build_game(net)
                games[id(net)] = (g, build_fairness(net, g))
            g, fcs = games[id(net)]
            self.slots += choice_slots(g)
            text = ops[i].argv[3]
            if parse_formula(text) != coalition(net, pf):
                failures[i] = f"formula text {text!r} does not parse back"
                continue
            expected = synthesize_fixpoint(g, fcs, pf).satisfied
            if codes[i] not in (0, 1):
                failures[i] = f"exit {codes[i]}"
            elif (codes[i] == 0) != expected:
                failures[i] = f"exit {codes[i]}, fixpoint engine says satisfied={expected}"
            self.sat += codes[i] == 0
            self.unsat += codes[i] == 1
        return failures

    def summary(self) -> str:
        return f"verdicts: {self.sat} sat / {self.unsat} unsat"


class CorpusUnfold(Workload):
    """``unfold --dot`` on every corpus net."""

    name = "corpus-unfold"

    def setup(self, workdir: Path, seed: int, size: dict) -> list:
        self.depth = size["depth"]
        self.corpus = write_corpus(workdir, seed, size["corpus"])
        return [Op(["unfold", path, "--depth", str(self.depth), "--dot"],
                   f"unfold {net.name}") for net, _, path in self.corpus]

    def check(self, ops: list, codes: list, reports: list) -> dict:
        """Element counts against the reference recorded from the seed
        commit (nets it does not hold are only checked for consistency
        between the header and the DOT body)."""
        reference = json.loads(UNFOLD_REFERENCE.read_text(encoding="utf-8"))
        failures = {}
        self.unreferenced = 0
        for i, (net, text, _) in enumerate(self.corpus):
            if codes[i] != 0:
                failures[i] = f"exit {codes[i]}"
                continue
            counts = header_counts(
                reports[i], rf"prefix of depth {self.depth}: (\d+) conditions, (\d+) events")
            body = (reports[i].count("[shape=circle"), reports[i].count("[shape=box"))
            expected = reference.get(f"{net_digest(text)}:{self.depth}")
            if counts is None or counts != body:
                failures[i] = f"header {counts} disagrees with the DOT body {body}"
            elif expected is None:
                self.unreferenced += 1
            elif list(counts) != expected:
                failures[i] = f"(conditions, events) = {counts}, reference {expected}"
        return failures

    def summary(self) -> str:
        return f"nets without a recorded reference: {self.unreferenced}"


# -- chains ---------------------------------------------------------------------------

class ChainSolve(Workload):
    """``check --engine fixpoint`` on three chain goals, then the README's
    two F4 goals with ``--engine both``."""

    name = "chain-solve"

    def setup(self, workdir: Path, seed: int, size: dict) -> list:
        k_sat, k_unsat, k_nested = size["solve"]
        self.nets = {}
        ops = []

        def add(net_text: str, formula: str, engine: str, expect: int):
            path = write(workdir / f"net{len(ops)}.net", net_text)
            self.nets[len(ops)] = (net_text, expect)
            ops.append(Op(["check", path, "--engine", engine, "--formula", formula],
                          f"check {formula}"))

        c = chains.chain(k_sat, seed)
        add(c.text, f"<<{c.users()}>> F {c.place('x0')}", "fixpoint", 0)
        c = chains.chain(k_unsat, seed)
        if k_unsat == 1:   # one user alone cannot make the toggle wait (F4)
            goal = f"F ({c.place('e0')} & {c.place('x0')})"
        else:              # the environment undoes one x_i at a time
            goal = "F (" + " & ".join(c.place(f"x{i}") for i in range(k_unsat)) + ")"
        add(c.text, f"<<{c.users()}>> {goal}", "fixpoint", 1)
        c = chains.chain(k_nested, seed)
        add(c.text, f"<<{c.users()}>> G <<{c.users()}>> F {c.place('x0')}", "fixpoint", 0)
        add(fixtures.FIG4, F4_SAT, "both", 0)
        add(fixtures.FIG4, F4_UNSAT, "both", 1)
        return ops

    def check(self, ops: list, codes: list, reports: list) -> dict:
        """Analytic verdicts; the README's F4 witness; every unsatisfied
        goal's printed lasso parses back and is fair."""
        failures = {}
        self.slots = 0
        for i, (net_text, expect) in self.nets.items():
            net = parse_net(net_text)
            g = build_game(net)
            self.slots += choice_slots(g)
            word = "satisfied" if expect == 0 else "unsatisfied"
            if codes[i] != expect:
                failures[i] = f"exit {codes[i]}, expected {expect}"
            elif f": {word} at " not in reports[i].splitlines()[0]:
                failures[i] = f"first report line does not say {word}"
            elif expect == 1 and (problem := check_lasso(net, g, reports[i])):
                failures[i] = problem
            elif ops[i].argv[-1] == F4_SAT and not all(
                    line in reports[i].splitlines() for line in F4_WITNESS):
                failures[i] = "F4 witness differs from the README's"
        return failures

class ChainPipeline(Workload):
    """Every non-solver command on one large chain."""

    name = "chain-pipeline"

    def setup(self, workdir: Path, seed: int, size: dict) -> list:
        k = self.k = size["pipeline"]
        c = self.chain = chains.chain(k, seed)
        net = write(workdir / "chain.net", c.text)
        play = write(workdir / "undo.play", chains.undo_play(c))
        lasso = write(workdir / "undo.lasso", chains.undo_lasso(c))
        argvs = [["validate", net],
                 ["reach", net, "--dot"],
                 ["build-game", net],
                 ["export", net, "--what", "game", "--dot"],
                 ["export", net, "--what", "fairness"],
                 ["unfold", net, "--depth", "3", "--dot"],
                 ["translate", net, "--play", play],
                 ["translate", net, "--lasso", lasso]]
        return [Op(argv, " ".join(argv[:1] + argv[2:3])) for argv in argvs]

    def check(self, ops: list, codes: list, reports: list) -> dict:
        """Every count the report prints, against chain(k)'s closed forms."""
        k, c = self.k, self.chain
        states, edges = chains.states(k), chains.edges(k)
        name = f"chain{k}"
        expected = [
            f"net {name}: ok ({2 + 3 * k} places, {2 + 4 * k} transitions, {k} user(s))\n",
            f"net {name}: {states} reachable markings, {edges} edges\n",
            f"game structure over {states} states, {k + 2} players, "
            f"{chains.fairness_constraints(k)} fairness constraints\n",
            "digraph game {\n",
            f"players: {' '.join(f'u{i}' for i in range(k))} env scheduler\n",
            "prefix of depth 3: {} conditions, {} events\n".format(*chains.prefix3(k)),
            f"{chains.linearisations(k)} computation(s)\n",
            "play:\n" + chains.undo_play_back(c),
        ]
        failures = {}
        for i, want in enumerate(expected):
            if codes[i] != 0:
                failures[i] = f"exit {codes[i]}"
            elif not reports[i].startswith(want):
                failures[i] = f"report does not start with {want!r}"
        game_dot = reports[3]
        if 3 not in failures and (game_dot.count("penwidth") != 1
                                  or game_dot.count("\n") != 3 + states + chains.game_moves(k) + 1):
            failures[3] = "game DOT does not have one node per state and one edge per move"
        repaired = f"-- computation {chains.linearisations(k) - 1} (fair)\n" \
            + chains.undo_lasso(c)
        if 6 not in failures and not reports[6].endswith(repaired):
            failures[6] = "the last computation is not the repaired undo lasso"
        return failures

WORKLOADS = {w.name: w for w in (CorpusCheck, ChainSolve, ChainPipeline, CorpusUnfold)}
