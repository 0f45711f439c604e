"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import random
import subprocess
import sys
import time

import pytest

from helpers import (
    corpus_net,
    formula_pool,
    insert_stutters,
    random_fair_lasso,
    random_lasso,
    random_valid_play,
    some_consistent_play_refutes,
)
from petrigames import fixtures
from petrigames.errors import BoundExceeded
from petrigames.formulas import (
    PathFormula,
    TrueConst,
    parse_formula,
    path_satisfies,
)
from petrigames.game import (
    build_fairness,
    build_game,
    computation_to_play,
    dot_game,
    lasso_is_fair,
    play_to_computations,
    stutter_remove,
)
from petrigames.nets import enabled_set, parse_net
from petrigames.solver import (
    PathObjective,
    check_net,
    format_profile,
    net_strategies_from_profile,
    profile_from_net_strategies,
    synthesize_enumerate,
    synthesize_fixpoint,
    verify_profile,
)
from petrigames.unfold import NetStrategy, unfold_prefix, validate_play

CORPUS_SIZE = 200
S = frozenset
F4 = parse_net(fixtures.FIG4)
GOAL_EITHER = "<<u>> F ((p0 & p3) | (p1 & p4))"
GOAL_BOTH = "<<u>> F (p0 & p3)"


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus_games():
    triples = []
    for seed in range(1, CORPUS_SIZE + 1):
        net = corpus_net(seed)
        g = build_game(net)
        triples.append((net, g, build_fairness(net, g)))
    return triples


@pytest.fixture(scope="module")
def agreement(corpus_games):
    """Criterion 6 data: per instance, both engines' verdicts."""
    started = time.perf_counter()
    rows = []
    for net, g, fcs in corpus_games:
        for pf in formula_pool(net):
            enum = synthesize_enumerate(g, fcs, pf)
            fix = synthesize_fixpoint(g, fcs, pf)
            rows.append((net, g, fcs, pf, enum, fix))
    elapsed = time.perf_counter() - started
    return rows, elapsed


def test_criterion_1_worked_example_verdicts():
    started = time.perf_counter()
    g, fcs, verdict = check_net(F4, parse_formula(GOAL_EITHER), engine="both")
    first = time.perf_counter() - started

    q02 = g.state_index[S({"p0", "p2"})]
    q12 = g.state_index[S({"p1", "p2"})]
    witness_ok = (
        verdict.satisfied
        and verdict.witness is not None
        and g.move_label(0, q02, verdict.witness.move(0, q02)) == "t3"
        and g.move_label(0, q12, verdict.witness.move(0, q12)) == "t2")

    started = time.perf_counter()
    _, _, refused = check_net(F4, parse_formula(GOAL_BOTH), engine="both")
    second = time.perf_counter() - started
    refused_ok = (not refused.satisfied
                  and refused.counterexample is not None
                  and lasso_is_fair(g, fcs, refused.counterexample).fair)

    # the filled strategy (t3 from both p2-markings) is beaten by the
    # t0,t3,t5,t1 evasion: its counterexample must tour those markings
    # while avoiding {p0,p3}
    filled = profile_from_net_strategies(g, [NetStrategy("u", {
        S({"p0", "p2"}): {"t3"}, S({"p1", "p2"}): {"t3"}})])
    outcome = verify_profile(
        g, fcs, filled,
        PathFormula.from_coalition(parse_formula(GOAL_BOTH)))
    evasion_ok = False
    if not outcome.ok and outcome.counterexample is not None:
        fair = lasso_is_fair(g, fcs, outcome.counterexample).fair
        prefix, cycle = stutter_remove(g, outcome.counterexample)
        seen = set(prefix) | set(cycle)
        evasion_ok = (fair
                      and S({"p0", "p3"}) not in seen
                      and {S({"p0", "p2"}), S({"p1", "p2"}),
                           S({"p1", "p3"})} <= set(cycle))

    ok = witness_ok and refused_ok and evasion_ok and first < 1.0 and second < 1.0
    report(1, ok,
           f"worked example: goal satisfied with the expected strategy "
           f"({first:.2f}s), stricter goal refused with a fair evasion "
           f"({second:.2f}s)")


def test_criterion_2_construction_invariants(corpus_games):
    started = time.perf_counter()
    f4_game = build_game(F4)
    checked = 0
    problems = []
    for net, g, _ in [(F4, f4_game, None)] + list(corpus_games):
        k = g.user_count
        for qi, marking in enumerate(g.states):
            enabled = enabled_set(net, marking)
            if g.d(g.scheduler_player, qi) != k + 1:
                problems.append(f"{net.name}: scheduler move count at {qi}")
            for a, user in enumerate(net.users):
                r = sum(1 for t in enabled if net.location_of(t) == user)
                if g.d(a, qi) != r + 1:
                    problems.append(f"{net.name}: user move count at {qi}")
            unc = sum(1 for t in enabled if not net.is_controllable(t))
            if g.d(g.env_player, qi) != (unc if unc else 1):
                problems.append(f"{net.name}: env move count at {qi}")
            seen_by_choice = {}
            for vec in g.move_vectors(qi):
                scheduled = vec[g.scheduler_player]
                key = (scheduled, vec[scheduled])
                result = g.tau(qi, vec)
                if seen_by_choice.setdefault(key, result) != result:
                    problems.append(f"{net.name}: tau not turn-based at {qi}")
            checked += 1
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60.0
    report(2, ok,
           f"move-count and turn-based rules over {checked} states of "
           f"{len(corpus_games) + 1} nets in {elapsed:.1f}s"
           + (f"; first problem: {problems[0]}" if problems else ""))


def test_criterion_3_fair_computations_become_plays(corpus_games):
    rng = random.Random("criterion-3")
    failures = 0
    produced = 0
    idx = 0
    while produced < 500:
        net, g, fcs = corpus_games[idx % len(corpus_games)]
        idx += 1
        lam = random_fair_lasso(g, fcs, rng)
        if not lasso_is_fair(g, fcs, lam).fair:
            failures += 1
            continue
        produced += 1
        play = computation_to_play(g, fcs, lam)
        if validate_play(net, play) != []:
            failures += 1
    report(3, failures == 0,
           f"{produced} random fair lassos translated to plays accepted "
           f"with zero diagnostics ({failures} failures)")


def test_criterion_4_plays_have_fair_computations(corpus_games):
    rng = random.Random("criterion-4")
    failures = 0
    produced = 0
    idx = 0
    while produced < 200:
        net, g, fcs = corpus_games[idx % len(corpus_games)]
        idx += 1
        play = random_valid_play(net, rng, prefix_depth=6)
        if validate_play(net, play) != []:
            continue  # generator missed; does not count as an instance
        produced += 1
        try:
            lassos = play_to_computations(g, fcs, play)
        except BoundExceeded:
            failures += 1
            continue
        if not any(lasso_is_fair(g, fcs, lam).fair for lam in lassos):
            failures += 1
    report(4, failures == 0,
           f"{produced} random valid plays each yielded a fair computation "
           f"({failures} failures)")


def test_criterion_5_stutter_invariance(corpus_games):
    rng = random.Random("criterion-5")
    pairs = 0
    failures = 0
    while pairs < 500:
        net, g, fcs = corpus_games[pairs % len(corpus_games)]
        lam = random_lasso(g, rng)
        twin = insert_stutters(g, lam, rng)
        pairs += 1
        if stutter_remove(g, lam) != stutter_remove(g, twin):
            failures += 1
            continue
        for pf in formula_pool(net):
            base = path_satisfies([g.w(q) for q, _ in lam.prefix],
                                  [g.w(q) for q, _ in lam.cycle], pf)
            padded = path_satisfies([g.w(q) for q, _ in twin.prefix],
                                    [g.w(q) for q, _ in twin.cycle], pf)
            if base != padded:
                failures += 1
    report(5, failures == 0,
           f"500 stutter-equivalent lasso pairs agree on every pooled "
           f"X-free formula ({failures} failures)")


def test_criterion_6_engine_agreement(agreement):
    rows, elapsed = agreement
    mismatched = [(net.name, str(pf)) for net, g, fcs, pf, enum, fix in rows
                  if enum.satisfied != fix.satisfied]
    satisfied = sum(1 for row in rows if row[4].satisfied)
    ok = not mismatched and elapsed < 600.0
    report(6, ok,
           f"enumerate and fixpoint agree on {len(rows)} instances "
           f"({satisfied} satisfied) in {elapsed:.1f}s"
           + (f"; first mismatch {mismatched[0]}" if mismatched else ""))


def test_criterion_7_converted_strategies_win_on_the_unfolding(agreement):
    rows, _ = agreement
    prefixes = {}
    failures = 0
    checked = 0
    for net, g, fcs, pf, enum, fix in rows:
        if not enum.satisfied:
            continue
        checked += 1
        strategies = net_strategies_from_profile(g, enum.witness)
        if net.name not in prefixes:
            prefixes[net.name] = unfold_prefix(net, 8, max_size=20_000)
        # markings from which a consistent play can continue under the
        # profile: exactly those admitting a fair computation
        g_true = PathObjective.from_path_formula(g, PathFormula("G", TrueConst()))
        viable = {g.states[qi] for qi in range(len(g.states))
                  if verify_profile(g, fcs, enum.witness, g_true, qi).ok}
        if net.initial not in viable:
            failures += 1
            continue
        if some_consistent_play_refutes(net, prefixes[net.name], strategies,
                                        pf, viable, horizon=8):
            failures += 1
    report(7, failures == 0,
           f"{checked} satisfied instances: converted net strategies admit "
           f"no refuting consistent play at horizon 8 ({failures} failures)")


def test_criterion_8_deterministic_reproducibility(tmp_path, corpus_games):
    def digest() -> str:
        chunks = []
        g, fcs, verdict = check_net(F4, parse_formula(GOAL_EITHER), engine="both")
        chunks.append(format_profile(g, verdict.witness))
        chunks.append("".join(dot_game(g)))
        for net, _, _ in corpus_games[:20]:
            fresh_game = build_game(net)
            fresh_fcs = build_fairness(net, fresh_game)
            for pf in formula_pool(net):
                verdict = synthesize_enumerate(fresh_game, fresh_fcs, pf)
                chunks.append(f"{net.name} {pf} {verdict.satisfied}")
                if verdict.witness is not None:
                    chunks.append(format_profile(fresh_game, verdict.witness))
        return "\n".join(chunks)

    first, second = digest(), digest()

    net_path = tmp_path / "F4.net"
    net_path.write_text(fixtures.FIG4)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "petrigames.cli", "check", str(net_path),
               "--formula", GOAL_BOTH, "--machine"]
    runs = [subprocess.run(command, capture_output=True, env=env)
            for _ in range(2)]
    exports = []
    for name in ("one.dot", "two.dot"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "petrigames.cli", "export",
                        str(net_path), "--what", "game", "--dot",
                        "--out", str(out)], capture_output=True, env=env)
        exports.append(out.read_bytes())

    ok = (first == second
          and runs[0].stdout == runs[1].stdout
          and runs[0].returncode == runs[1].returncode == 1
          and exports[0] == exports[1])
    report(8, ok, "reports and DOT exports byte-identical across two runs")
