import hashlib
import itertools
import random
import sys

import pytest

from helpers import WIDE_DRAW, chain_net, check_first_profile_lasso, corpus_net, \
    formula_pool, monitor_start, monitor_step, nested_goals, pool_goal, reference_sweep, \
    refute_profile, report_goals, stack_depth
from petrigames import cli, fixtures, solver
from petrigames.errors import BoundExceeded, InputError
from petrigames.formulas import Coalition, PathFormula, Prop, format_formula, holds_in, \
    parse_formula, path_satisfies
from petrigames.game import FairnessConstraint, build_fairness, build_game, lasso_is_fair, \
    stutter_remove, validate_lasso
from petrigames.nets import marking_key, parse_net
from petrigames.solver import (
    GameProfile,
    PathObjective,
    format_profile,
    iter_profiles,
    model_check,
    net_strategies_from_profile,
    parse_profile,
    profile_from_net_strategies,
    profile_space,
    synthesize,
    synthesize_enumerate,
    synthesize_fixpoint,
    validate_game_profile,
    verify_profile,
)
from petrigames.unfold import NetStrategy

F4 = parse_net(fixtures.FIG4)
S = frozenset

REACH_EITHER = PathFormula.from_coalition(
    parse_formula("<<u>> F ((p0 & p3) | (p1 & p4))"))
REACH_BOTH = PathFormula.from_coalition(parse_formula("<<u>> F (p0 & p3)"))


@pytest.fixture(scope="module")
def g4():
    return build_game(F4)


@pytest.fixture(scope="module")
def fc4(g4):
    return build_fairness(F4, g4)


def example_profile(g, move_at_p0p2="t3", move_at_p1p2="t2"):
    """The example strategy: the user fires t3 from {p0,p2} and t2 from
    {p1,p2} (parameters allow its variants)."""
    per_state = []
    for qi, m in enumerate(g.states):
        labels = g.moves[0][qi]
        if m == S({"p0", "p2"}):
            per_state.append(labels.index(move_at_p0p2))
        elif m == S({"p1", "p2"}):
            per_state.append(labels.index(move_at_p1p2))
        else:
            per_state.append(g.idle_move(0, qi))
    return GameProfile((tuple(per_state),))


def test_profile_space_and_iteration_order(g4):
    assert profile_space(g4) == 9
    profiles = list(iter_profiles(g4))
    assert len(profiles) == 9
    q0 = g4.state_index[S({"p0", "p2"})]
    q1 = g4.state_index[S({"p1", "p2"})]
    # canonical order: t2 before t3 before idle, state-minor
    assert profiles[0].move(0, q0) == 0 and profiles[0].move(0, q1) == 0


def test_example_strategy_wins_reach_either(g4, fc4):
    outcome = verify_profile(g4, fc4, example_profile(g4), REACH_EITHER)
    assert outcome.ok


def test_example_strategy_loses_reach_both(g4, fc4):
    outcome = verify_profile(g4, fc4, example_profile(g4), REACH_BOTH)
    assert not outcome.ok
    assert outcome.counterexample is not None
    assert lasso_is_fair(g4, fc4, outcome.counterexample).fair


def test_filled_t3_strategy_counterexample_contains_evasion(g4, fc4):
    # the variant firing t3 from both p2-markings is defeated by the
    # t0,t3,t5,t1 evasion: the counterexample must tour exactly the three
    # markings of that cycle and avoid the target
    profile = example_profile(g4, move_at_p0p2="t3", move_at_p1p2="t3")
    outcome = verify_profile(g4, fc4, profile, REACH_BOTH)
    assert not outcome.ok
    prefix, cycle = stutter_remove(g4, outcome.counterexample)
    assert S({"p0", "p3"}) not in set(prefix) | set(cycle)
    assert {S({"p0", "p2"}), S({"p1", "p2"}), S({"p1", "p3"})} <= set(cycle)


def test_verify_rejects_unknown_state(g4, fc4):
    with pytest.raises(InputError):
        verify_profile(g4, fc4, example_profile(g4), REACH_EITHER, q0=99)


def test_verify_rejects_a_move_that_is_not_an_integer(g4, fc4):
    floats = GameProfile((tuple(0.0 for _ in g4.states),))
    with pytest.raises(InputError, match="is not a move index"):
        verify_profile(g4, fc4, floats, REACH_EITHER)


def test_format_profile_rejects_a_move_that_is_not_an_integer(g4):
    floats = GameProfile((tuple(0.0 for _ in g4.states),))
    with pytest.raises(InputError, match="is not a move index"):
        format_profile(g4, floats)
    with pytest.raises(InputError, match="is not a move index"):
        list(solver._profile_moves(g4, floats))


def test_format_profile_rejects_a_profile_missing_states(g4):
    short = GameProfile(((0,),))
    with pytest.raises(InputError, match="must assign a move at every state"):
        format_profile(g4, short)
    with pytest.raises(InputError, match="must assign a move at every state"):
        list(solver._profile_moves(g4, short))


def test_verify_accepts_a_profile_of_lists(g4, fc4):
    lists = GameProfile([list(per_state) for per_state in example_profile(g4).moves])
    assert verify_profile(g4, fc4, lists, REACH_EITHER).ok
    assert not verify_profile(g4, fc4, lists, REACH_BOTH).ok


@pytest.mark.parametrize("call", [
    lambda g, fcs, q0: verify_profile(g, fcs, example_profile(g), REACH_EITHER, q0),
    lambda g, fcs, q0: synthesize_enumerate(g, fcs, REACH_EITHER, q0),
    lambda g, fcs, q0: synthesize_fixpoint(g, fcs, REACH_EITHER, q0),
    lambda g, fcs, q0: model_check(g, fcs, parse_formula(
        "<<u>> F ((p0 & p3) | (p1 & p4))"), q0, engine="enumerate"),
    lambda g, fcs, q0: model_check(g, fcs, parse_formula(
        "<<u>> F ((p0 & p3) | (p1 & p4))"), q0, engine="fixpoint"),
    lambda g, fcs, q0: model_check(g, fcs, parse_formula(
        "<<u>> F ((p0 & p3) | (p1 & p4))"), q0, engine="both"),
], ids=["verify_profile", "synthesize_enumerate", "synthesize_fixpoint",
        "model_check-enumerate", "model_check-fixpoint", "model_check-both"])
@pytest.mark.parametrize("where", ["minus-one", "past-the-end"])
def test_every_entry_point_rejects_an_out_of_range_start(g4, fc4, call, where):
    q0 = -1 if where == "minus-one" else len(g4.states)
    with pytest.raises(InputError, match=f"^unknown state index {q0}$"):
        call(g4, fc4, q0)


def test_vacuous_profile_detected():
    # a user that refuses to move in a user-only net admits no fair
    # computation: not a winning profile, with a telling reason
    net = parse_net(fixtures.USERONLY)
    g = build_game(net)
    fcs = build_fairness(net, g)
    idle_all = GameProfile((tuple(g.idle_move(0, qi) for qi in range(len(g.states))),))
    objective = PathObjective.from_path_formula(
        g, PathFormula("G", parse_formula("true")))
    outcome = verify_profile(g, fcs, idle_all, objective)
    assert not outcome.ok
    assert "no fair computation" in outcome.reason


def test_check_net_keeps_idle_moves_by_default():
    # without the flag, check_net builds the game of an explicit False: the
    # lone user keeps its idle moves and gets progress constraints instead
    net = parse_net(fixtures.USERONLY)
    formula = parse_formula("<<u>> F c")
    g, fcs, verdict = solver.check_net(net, formula)
    explicit = solver.check_net(net, formula, single_user_simplification=False)
    assert not g.single_user_simplification
    qa = g.state_index[S({"a"})]
    assert g.moves[0][qa] == ("s", None)
    assert any(fc.name.startswith("progress:") for fc in fcs)
    assert (g.moves, fcs, verdict) == (explicit[0].moves, explicit[1], explicit[2])
    assert verdict.satisfied


def test_g_true_holds_for_every_fig4_profile(g4, fc4):
    objective = PathObjective.from_path_formula(
        g4, PathFormula("G", parse_formula("true")))
    for profile in iter_profiles(g4):
        assert verify_profile(g4, fc4, profile, objective).ok


def test_enumerate_finds_expected_witness(g4, fc4):
    verdict = synthesize_enumerate(g4, fc4, REACH_EITHER)
    assert verdict.satisfied
    q0 = g4.state_index[S({"p0", "p2"})]
    q1 = g4.state_index[S({"p1", "p2"})]
    assert g4.move_label(0, q0, verdict.witness.move(0, q0)) == "t3"
    assert g4.move_label(0, q1, verdict.witness.move(0, q1)) == "t2"
    # the witness really wins
    assert verify_profile(g4, fc4, verdict.witness, REACH_EITHER).ok


def test_enumerate_unsatisfiable_goal(g4, fc4):
    verdict = synthesize_enumerate(g4, fc4, REACH_BOTH)
    assert not verdict.satisfied
    assert verdict.counterexample is not None
    assert lasso_is_fair(g4, fc4, verdict.counterexample).fair


def test_enumerate_profile_bound(g4, fc4):
    with pytest.raises(BoundExceeded):
        synthesize_enumerate(g4, fc4, REACH_EITHER, max_profiles=4)


def test_fixpoint_agrees_on_fig4(g4, fc4):
    sat = synthesize_fixpoint(g4, fc4, REACH_EITHER)
    assert sat.satisfied
    assert sat.witness == synthesize_enumerate(g4, fc4, REACH_EITHER).witness
    unsat = synthesize_fixpoint(g4, fc4, REACH_BOTH)
    assert not unsat.satisfied
    assert unsat.counterexample is not None


def test_single_state_deadlock_game():
    net = parse_net(fixtures.DEADLOCK)
    g = build_game(net)
    fcs = build_fairness(net, g)
    objective = PathObjective.from_path_formula(
        g, PathFormula("G", parse_formula("p0")))
    verdict = synthesize_enumerate(g, fcs, objective)
    assert verdict.satisfied
    assert synthesize_fixpoint(g, fcs, objective).satisfied
    target = PathObjective.from_path_formula(
        g, PathFormula("U", parse_formula("true"), parse_formula("p1")))
    assert not synthesize_enumerate(g, fcs, target).satisfied
    assert not synthesize_fixpoint(g, fcs, target).satisfied


def test_constraint_entries_outside_the_game_are_ignored(g4, fc4):
    # a constraint entry naming no state, player or move of the game is
    # never taken, and a set holding only such entries still enables its
    # constraint at its state
    n = len(g4.states)
    sched = g4.scheduler_player
    for extra in [FairnessConstraint(0, "odd", {0: {-1}, n: {0}}),
                  FairnessConstraint(sched, "self", {0: {sched}})]:
        for synthesize_with in (synthesize_enumerate, synthesize_fixpoint):
            verdict = synthesize_with(g4, fc4 + (extra,), REACH_EITHER)
            assert verdict.satisfied, (extra, synthesize_with)
            assert verdict.witness.moves == ((1, 0, 0, 0, 0, 0),)
    # enabled everywhere and never taken: no computation is fair
    for extra in [FairnessConstraint(sched, "self", dict.fromkeys(range(n), {sched, -1})),
                  FairnessConstraint(0, "odd", dict.fromkeys(range(n), {-1, 99}))]:
        for synthesize_with in (synthesize_enumerate, synthesize_fixpoint):
            verdict = synthesize_with(g4, fc4 + (extra,), REACH_EITHER)
            assert not verdict.satisfied
            assert verdict.reason == "profile admits no fair computation from the initial state"


def test_engine_both_mode(g4, fc4):
    verdict = synthesize(g4, fc4, REACH_EITHER, engine="both")
    assert verdict.satisfied
    with pytest.raises(InputError):
        synthesize(g4, fc4, REACH_EITHER, engine="quantum")


def test_model_check_rejects_an_unknown_engine_without_a_coalition(g4, fc4):
    # the name is checked on entry, not only where a coalition is labelled
    with pytest.raises(InputError, match="unknown engine 'bogus'"):
        model_check(g4, fc4, parse_formula("p0"), engine="bogus")


def test_cooperation_needs_both_users():
    net = parse_net(fixtures.COOP2)
    g = build_game(net)
    fcs = build_fairness(net, g)
    goal = PathFormula.from_coalition(parse_formula("<<u1,u2>> F (ga & gb)"))
    enumerate_verdict = synthesize_enumerate(g, fcs, goal)
    fixpoint_verdict = synthesize_fixpoint(g, fcs, goal)
    assert enumerate_verdict.satisfied
    assert fixpoint_verdict.satisfied
    assert enumerate_verdict.witness == fixpoint_verdict.witness


def test_model_check_example_formulas(g4, fc4):
    verdict = model_check(g4, fc4, parse_formula("<<u>> F ((p0 & p3) | (p1 & p4))"))
    assert verdict.satisfied
    assert verdict.witness is not None
    refused = model_check(g4, fc4, parse_formula("<<u>> F (p0 & p3)"))
    assert not refused.satisfied
    assert refused.counterexample is not None


def test_model_check_nested_coalitions(g4, fc4):
    # the user can always regain the option of reaching p2: trivially true
    # since p2-return transitions are uncontrollable
    verdict = model_check(g4, fc4, parse_formula("<<u>> G <<u>> F p2"),
                          engine="both")
    assert verdict.satisfied
    inner = verdict.state_sets["<<u>> U(true, p2)"]
    assert S({"p0", "p2"}) in inner
    # boolean structure over coalition results
    neg = model_check(g4, fc4, parse_formula("!<<u>> F (p0 & p3)"))
    assert neg.satisfied


def test_model_check_rejects_fragment_violations(g4, fc4):
    with pytest.raises(InputError):
        model_check(g4, fc4, parse_formula("<<u>> X p0"))
    with pytest.raises(InputError):
        model_check(g4, fc4, parse_formula("<<me>> G p0"))


def test_model_check_state_sets_are_markings(g4, fc4):
    verdict = model_check(g4, fc4, parse_formula("<<u>> F (p0 & p3)"))
    sets = verdict.state_sets
    assert sets["p0 & p3"] == (S({"p0", "p3"}),)
    assert sets["true"] == tuple(sorted(g4.states, key=lambda m: tuple(sorted(m))))


# -- one arena per objective ------------------------------------------------------

def _game(text):
    net = parse_net(text)
    g = build_game(net)
    return g, build_fairness(net, g)


def _winning(g, fcs, objective):
    """States where a fresh fixpoint synthesis finds a witness."""
    return frozenset(qi for qi in range(len(g.states))
                     if synthesize_fixpoint(g, fcs, objective, qi).satisfied)


def _markings(g, states):
    return tuple(sorted((g.states[qi] for qi in states), key=marking_key))


def _assert_matches_fresh_synthesis(g, fcs, formula):
    key = format_formula(formula)
    pf = PathFormula.from_coalition(formula)
    winning = _markings(g, _winning(g, fcs, pf))
    for qi in range(len(g.states)):
        fresh = synthesize_fixpoint(g, fcs, pf, qi)
        verdict = model_check(g, fcs, formula, q0=qi, engine="fixpoint")
        assert verdict.state_sets[key] == winning, (key, qi)
        assert verdict.satisfied == fresh.satisfied, (key, qi)
        assert verdict.witness == fresh.witness, (key, qi)
        assert verdict.counterexample == fresh.counterexample, (key, qi)
        assert verdict.reason == fresh.reason, (key, qi)


def test_shared_arena_matches_fresh_synthesis_on_corpus(g4, fc4):
    # model_check grows one arena per objective over all start states; every
    # state must see what a fresh arena built from it alone gives
    for text in ("<<u>> F (p0 & p3)", "<<u>> F ((p0 & p3) | (p1 & p4))"):
        _assert_matches_fresh_synthesis(g4, fc4, parse_formula(text))
    for seed in range(1, 21):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            args = (pf.left,) if pf.op == "G" else (pf.left, pf.right)
            _assert_matches_fresh_synthesis(g, fcs, Coalition(tuple(net.users), pf.op, args))


def test_nested_coalition_sets_match_fresh_synthesis():
    g, fcs = _game(chain_net(2))
    verdict = model_check(g, fcs, parse_formula("<<u0,u1>> G <<u0,u1>> F x0"),
                          engine="fixpoint")
    inner = _winning(g, fcs, PathFormula.from_coalition(
        parse_formula("<<u0,u1>> F x0")))
    outer = _winning(g, fcs, PathObjective.from_state_sets(g, "G", inner))
    assert verdict.state_sets["<<u0,u1>> U(true, x0)"] == _markings(g, inner)
    assert verdict.state_sets["<<u0,u1>> G <<u0,u1>> U(true, x0)"] \
        == _markings(g, outer)
    assert verdict.satisfied == (g.initial_state() in outer)


def _fresh_verdicts(g, fcs, formula, labels):
    """Fresh fixpoint verdicts of the coalition ``formula`` at every state;
    ``labels`` gets the winning states of it and of every coalition inside
    it, by formula text."""
    args = []
    for arg in formula.args:
        if isinstance(arg, Coalition):
            _fresh_verdicts(g, fcs, arg, labels)
            args.append(labels[format_formula(arg)])
        else:
            args.append(frozenset(qi for qi in range(len(g.states))
                                  if holds_in(arg, g.w(qi))))
    objective = PathObjective.from_state_sets(g, formula.op, *args)
    verdicts = [synthesize_fixpoint(g, fcs, objective, qi) for qi in range(len(g.states))]
    labels[format_formula(formula)] = frozenset(
        qi for qi, v in enumerate(verdicts) if v.satisfied)
    return verdicts


def _assert_nested_matches_fresh_synthesis(g, fcs, formula):
    labels = {}
    fresh = _fresh_verdicts(g, fcs, formula, labels)
    key = format_formula(formula)
    for qi in range(len(g.states)):
        verdict = model_check(g, fcs, formula, q0=qi, engine="fixpoint")
        for k, states in labels.items():
            assert verdict.state_sets[k] == _markings(g, states), (key, k, qi)
        assert verdict.satisfied == fresh[qi].satisfied, (key, qi)
        assert verdict.witness == fresh[qi].witness, (key, qi)
        assert verdict.counterexample == fresh[qi].counterexample, (key, qi)
        assert verdict.reason == fresh[qi].reason, (key, qi)


def test_nested_goals_match_fresh_synthesis_on_corpus():
    # fixpoint labelling decides non-root states by the all-states region and
    # by earlier witnesses; every bit, at every root, must be a fresh search's
    for seed in range(1, 21):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for formula in nested_goals(net):
            _assert_nested_matches_fresh_synthesis(g, fcs, formula)


def test_unsatisfied_chain_goal_matches_fresh_synthesis():
    g, fcs = _game(chain_net(3))
    formula = parse_formula("<<u0,u1,u2>> F (x0 & x1 & x2)")
    labels = {}
    fresh = _fresh_verdicts(g, fcs, formula, labels)
    verdict = model_check(g, fcs, formula, engine="fixpoint")
    root = fresh[g.initial_state()]
    assert not verdict.satisfied
    key = format_formula(formula)
    assert verdict.state_sets[key] == _markings(g, labels[key])
    assert (verdict.witness, verdict.counterexample, verdict.reason) \
        == (root.witness, root.counterexample, root.reason)


def test_fixpoint_state_sets_match_enumerate_on_corpus():
    # the whole verdict on the whole corpus, since both engines read the
    # arena's one walk and the fair game reads the monitor rule from it
    for seed in range(1, 201):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            formula = pool_goal(net, pf)
            exhaustive = model_check(g, fcs, formula, engine="enumerate")
            labelled = model_check(g, fcs, formula, engine="fixpoint")
            assert labelled.state_sets == exhaustive.state_sets, (seed, pf)
            assert labelled.satisfied == exhaustive.satisfied, (seed, pf)
            assert labelled.witness == exhaustive.witness, (seed, pf)
            assert labelled.counterexample == exhaustive.counterexample, (seed, pf)
            assert labelled.reason == exhaustive.reason, (seed, pf)
            if seed > 20:
                continue
            # the slot search's witness at every state, not only at q0
            game = solver._FairGame(g, fcs, PathObjective.from_path_formula(g, pf))
            states = range(len(g.states))
            swept = solver._sweep(game, states, solver.DEFAULT_PROFILE_BOUND)
            for qi in states:
                assert solver._search(game, qi) == swept[qi], (seed, pf, qi)


def _flat(profile):
    """The solver's flat slot vector of a profile: users major, states minor."""
    return tuple(j for per_state in profile.moves for j in per_state)


def _violating_component(game, flat, root):
    # the profile reaches a fair violating component from root
    return bool(solver._product(game, flat, [root])[3])


def _region(game, states):
    """The states of ``states`` lost to users with unrestricted memory: one
    all-free solve from all their roots."""
    free = [None] * len(solver._slot_sizes(game.g))
    won, _ = game.solve(free, [game.start(qi) for qi in states])
    return {qi for qi, lost in zip(states, won) if lost}


@pytest.mark.parametrize("fair", [True, False])
def test_arena_solve_matches_exact_profile_check(fair):
    # the fair game's answer against the exact check of one profile: equal on
    # complete profiles, sound on partial ones and on all the states' roots
    rng = random.Random(7)
    partial_wins = 0
    for seed in range(1, 31):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g) if fair else ()
        n = len(g.states)
        profiles = [_flat(p) for p in iter_profiles(g)]
        for pf in formula_pool(net):
            game = solver._FairGame(g, fcs, PathObjective.from_path_formula(g, pf))
            lost = _region(game, range(n))
            for qi in range(n):
                root = game.start(qi)
                refuted = [_violating_component(game, full, root) for full in profiles]
                walks = []
                for full, violated in zip(profiles, refuted):
                    (won,), reached = game.solve(full, [root])
                    assert won == violated, (seed, pf, qi, full)
                    walks.append(reached)
                assert qi not in lost or all(refuted), (seed, pf, qi)
                # a root's own solve answers as the all-states one does
                assert _region(game, [qi]) == lost & {qi}, (seed, pf, qi)
                for _ in range(4):
                    fixed = [rng.randrange(g.d(a, q)) if rng.random() < 0.5 else None
                             for a in range(g.user_count) for q in range(n)]
                    (won,), reached = game.solve(fixed, [root])
                    partial_wins += won
                    # no completion reaches a state the masked walk misses
                    for full, violated, walk in zip(profiles, refuted, walks):
                        if all(j in (None, k) for j, k in zip(fixed, full)):
                            assert walk <= reached, (seed, pf, qi, fixed, full)
                            assert violated or not won, (seed, pf, qi, fixed, full)
    assert partial_wins > 0


def _sample_profiles(g, rng):
    """Every profile of a space of at most 64; otherwise the first, the
    last and 6 random ones."""
    if profile_space(g) <= 64:
        return list(iter_profiles(g))
    n = len(g.states)
    sizes = [[g.d(a, qi) for qi in range(n)] for a in range(g.user_count)]
    picks = [lambda size: 0, lambda size: size - 1] + [rng.randrange] * 6
    return [GameProfile(tuple(tuple(pick(size) for size in per_user)
                              for per_user in sizes))
            for pick in picks]


@pytest.mark.parametrize("fair", [True, False])
def test_refute_matches_independent_profile_check(fair, monkeypatch):
    # won, no fair computation, or the same first violating component: the
    # one the lasso is built in
    lassos = _count_calls(monkeypatch, "_extract_lasso")
    rng = random.Random(11)
    violated = 0
    for seed in range(1, 31):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g) if fair else ()
        profiles = _sample_profiles(g, rng)
        for pf in formula_pool(net):
            game = solver._FairGame(g, fcs, PathObjective.from_path_formula(g, pf))
            for qi in range(len(g.states)):
                for profile in profiles:
                    expected = refute_profile(g, fcs, pf, profile, qi)
                    outcome = solver._check(game, _flat(profile), qi)
                    if outcome.ok:
                        got = None
                    elif outcome.counterexample is None:
                        got = "no fair computation"
                    else:
                        got = set(lassos[-1][4])
                        violated += 1
                    assert got == expected, (seed, pf, qi, profile)
    assert violated > 0


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(solver, name)
    monkeypatch.setattr(solver, name,
                        lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize("goal, searches, lassos", [
    ("F x0", 2, 0),
    ("F (x0 & x1 & x2)", 2, 1),
])
def test_fixpoint_labelling_searches_only_where_needed(monkeypatch, goal, searches, lassos):
    # chain(3) has 54 states: the all-states region and the witnesses
    # already found decide all but at most one of the non-root ones
    g, fcs = _game(chain_net(3))
    searched = _count_calls(monkeypatch, "_search")
    built = _count_calls(monkeypatch, "_extract_lasso")
    verdict = model_check(g, fcs, parse_formula(f"<<u0,u1,u2>> {goal}"), engine="fixpoint")
    assert verdict.satisfied == (lassos == 0)
    assert len(searched) <= searches
    assert len(built) == lassos


def test_fixpoint_labelling_builds_only_printed_lassos(monkeypatch):
    built = _count_calls(monkeypatch, "_extract_lasso")
    printed = 0
    for seed in range(1, 41):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            verdict = model_check(g, fcs, pool_goal(net, pf), engine="fixpoint")
            printed += verdict.counterexample is not None
    assert printed > 0
    assert len(built) == printed


def test_enumerate_builds_only_the_returned_lasso(monkeypatch):
    built = _count_calls(monkeypatch, "_extract_lasso")
    returned = 0
    for seed in range(1, 21):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            verdict = synthesize_enumerate(g, fcs, pf)
            returned += verdict.counterexample is not None
    assert returned > 0
    assert len(built) == returned


@pytest.mark.parametrize("engine", solver.ENGINES)
def test_model_check_builds_at_most_one_lasso(monkeypatch, engine):
    # only the outermost coalition's verdict at q0 carries a lasso
    built = _count_calls(monkeypatch, "_extract_lasso")
    unsatisfied = 0
    for seed in range(1, 21):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for formula in [pool_goal(net, pf) for pf in formula_pool(net)] \
                + list(nested_goals(net)):
            before = len(built)
            verdict = model_check(g, fcs, formula, engine=engine)
            unsatisfied += not verdict.satisfied
            assert len(built) - before == (verdict.counterexample is not None)
    assert unsatisfied > 0


def test_enumerate_builds_a_game_profile_only_for_the_witness(monkeypatch):
    # the sweep runs on flat slot vectors; a GameProfile is built only
    # for the witness of a satisfied verdict
    built = _count_calls(monkeypatch, "GameProfile")
    satisfied = unsatisfied = 0
    for seed in range(1, 41):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            verdict = synthesize_enumerate(g, fcs, pf)
            satisfied += verdict.satisfied
            unsatisfied += not verdict.satisfied
    assert satisfied > 0 and unsatisfied > 0
    assert len(built) == satisfied


def test_enumerate_labels_each_move_once(monkeypatch):
    # one label table per call, with one mask per move: each (constraint,
    # move) is labelled once, however many profiles and product rows
    # revisit it, and the printed lasso reads the same table
    built = _count_calls(monkeypatch, "_label_table")
    for seed in range(1, 21):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        moves = sum(len(per_state[qi]) for per_state in g.successors
                    for qi in range(len(g.states)))
        assert sum(map(len, itertools.chain(*solver._label_table(g, fcs)))) == moves
        for pf in formula_pool(net):
            before = len(built)
            synthesize_enumerate(g, fcs, pf)
            assert len(built) - before == 1, (seed, pf)


def test_model_check_builds_the_label_table_once(monkeypatch):
    # every coalition's arena, nested ones too, shares one table per call
    built = _count_calls(monkeypatch, "_label_table")
    for seed in range(1, 11):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for formula in [pool_goal(net, pf) for pf in formula_pool(net)] \
                + list(nested_goals(net)):
            for engine in solver.ENGINES:
                before = len(built)
                model_check(g, fcs, formula, engine=engine)
                assert len(built) - before == 1, (seed, formula, engine)


def test_enumerate_labelling_builds_one_product_graph_per_profile(monkeypatch):
    # corpus_net(1)'s third pool goal holds at q0 and is lost at 3 of 7
    # states, so the sweep decides every profile; one product graph per
    # profile serves every state still undecided (the parent built one
    # per state and profile)
    net = corpus_net(1)
    g = build_game(net)
    fcs = build_fairness(net, g)
    formula = pool_goal(net, formula_pool(net)[2])
    built = _count_calls(monkeypatch, "_product")
    verdict = model_check(g, fcs, formula)
    assert verdict.satisfied
    assert len(g.states) - len(verdict.state_sets[format_formula(formula)]) >= 2
    assert 0 < len(built) <= profile_space(g)


@pytest.mark.parametrize("fair", [True, False])
def test_enumerate_witness_at_every_state_matches_independent_check(fair):
    # every state's witness is the first profile in canonical order that
    # the independent check of tests/helpers.py finds winning there
    checked = won = 0
    for seed in range(1, 41):
        net = corpus_net(seed)
        g = build_game(net)
        if profile_space(g) > 64:
            continue
        fcs = build_fairness(net, g) if fair else ()
        profiles = list(iter_profiles(g))
        states = range(len(g.states))
        for pf in formula_pool(net):
            game = solver._FairGame(g, fcs, PathObjective.from_path_formula(g, pf))
            swept = solver._sweep(game, states, solver.DEFAULT_PROFILE_BOUND)
            for qi in states:
                expected = next((_flat(p) for p in profiles
                                 if refute_profile(g, fcs, pf, p, qi) is None), None)
                assert swept[qi] == expected, (seed, pf, qi)
                checked += 1
                won += expected is not None
    assert 0 < won < checked


@pytest.mark.parametrize("caps", [{}, WIDE_DRAW], ids=["corpus", "wide-draw"])
def test_sweep_finds_the_reference_sweeps_witnesses(monkeypatch, caps):
    # every sweep of the pool and nested goals' coalitions, labelled at
    # every state, returns the reference sweep's witness at each state
    compared = []
    sweep = solver._sweep

    def checked(game, states, max_profiles):
        swept = sweep(game, states, max_profiles)
        assert swept == reference_sweep(game, states)
        compared.append(states)
        return swept

    monkeypatch.setattr(solver, "_sweep", checked)
    for seed in range(1, 41):
        net = corpus_net(seed, **caps)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for goal in [pool_goal(net, pf) for pf in formula_pool(net)] \
                + list(nested_goals(net)):
            model_check(g, fcs, goal)
    assert len(compared) == 40 * 9


PICK = """net pick
locations env u
place c @u init
place x @env
place y @env
trans a @u pre c post x
trans b @u pre c post y
"""


def test_a_refuted_profile_that_reads_no_choice_slot_ends_the_sweep(monkeypatch):
    # from {x} the user's one choice, at {c}, is out of reach: the first
    # profile's check reads no choice slot, so it refutes all three
    g, fcs = _game(PICK)
    qx = g.state_index[S({"x"})]
    game = solver._arena(g, fcs, PathFormula.from_coalition(parse_formula("<<u>> F y")))
    calls = _count_calls(monkeypatch, "_product")
    assert solver._sweep(game, [qx], solver.DEFAULT_PROFILE_BOUND) == {qx: None}
    assert len(calls) == 1
    assert reference_sweep(game, [qx]) == {qx: None}
    assert len(calls) == 1 + profile_space(g) == 4


def test_a_sweep_whose_checks_read_every_slot_skips_nothing(monkeypatch):
    # chain(2)'s F y1 at every state: each check before the last winner
    # reaches every choice slot, so the sweep walks the reference's profiles
    g, fcs = _game(chain_net(2))
    game = solver._arena(g, fcs, PathFormula.from_coalition(
        parse_formula("<<u0,u1>> F y1")))
    states = range(len(g.states))
    calls = _count_calls(monkeypatch, "_product")
    swept = solver._sweep(game, states, profile_space(g))
    walks = len(calls)
    assert swept == reference_sweep(game, states)
    assert all(swept.values())
    assert walks == len(calls) - walks == 355


def _pool_check_walks(monkeypatch, sweep):
    """The :func:`solver._product` calls of initial-state-only
    ``model_check`` over ``corpus_net(1..40)``'s pool goals with ``sweep``
    as the enumerate sweep, and the verdicts."""
    monkeypatch.setattr(solver, "_sweep", sweep)
    calls = _count_calls(monkeypatch, "_product")
    verdicts = []
    for seed in range(1, 41):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            verdicts.append(model_check(g, fcs, pool_goal(net, pf), every_state=False))
    monkeypatch.undo()
    return len(calls), verdicts


def test_enumerate_skips_the_profiles_a_refuted_one_refutes(monkeypatch):
    # the work, not the time: the pinned count of product walks (each
    # unsatisfied goal's lasso check included), below the reference sweep's
    # 2876, with the same verdicts
    walks, verdicts = _pool_check_walks(monkeypatch, solver._sweep)
    reference, expected = _pool_check_walks(
        monkeypatch, lambda game, states, max_profiles: reference_sweep(game, states))
    assert verdicts == expected
    assert walks == 2138
    assert walks < reference


def test_the_profile_bound_is_checked_before_any_walk(g4, fc4, monkeypatch, capsys,
                                                     tmp_path):
    space = profile_space(g4)
    message = (f"profile space of size {space} exceeds the enumeration bound "
               f"{space - 1}; use the fixpoint engine")
    game = solver._arena(g4, fc4, REACH_BOTH)
    calls = _count_calls(monkeypatch, "_product")
    with pytest.raises(BoundExceeded) as raised:
        solver._sweep(game, range(len(g4.states)), space - 1)
    assert str(raised.value) == message
    assert calls == []
    path = tmp_path / "F4.net"
    path.write_text(fixtures.FIG4)
    argv = ["check", str(path), "--formula", "<<u>> F (p0 & p3)"]
    assert cli.main(argv + ["--max-profiles", str(space - 1)]) == 3
    assert capsys.readouterr().out == f"resource bound exceeded: {message}\n"
    assert calls == []
    assert cli.main(argv + ["--max-profiles", str(space)]) == 1
    assert calls


def test_engines_label_nested_goals_alike():
    for seed in range(1, 41):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for formula in nested_goals(net):
            sets = [model_check(g, fcs, formula, engine=engine).state_sets
                    for engine in solver.ENGINES]
            assert sets[0] == sets[1] == sets[2], (seed, formula)


class _Relabelled:
    """A game whose state labels also hold, as propositions named by their
    keys, the state sets a verdict gives its inner coalitions."""

    def __init__(self, g, inner):
        self.g = g
        self.extra = [frozenset(key for key, markings in inner.items() if m in markings)
                      for m in g.states]

    def __getattr__(self, name):
        return getattr(self.g, name)

    def w(self, qi):
        return self.g.w(qi) | self.extra[qi]


def test_engines_agree_on_the_wide_draw_and_their_evidence_rechecks():
    # the wide draw (up to three users, profile spaces up to 13,824), where
    # the slot search does work the corpus never asks of it; seeds 1..40 are
    # the block test_wide_draw_and_its_prefixes_unchanged pins.  Each root
    # verdict is re-checked without the solver, an inner coalition of a
    # nested goal read as a proposition that holds on its labelled set
    rechecked = {"witness": 0, "lasso": 0}
    for seed in range(1, 41):
        net = corpus_net(seed, **WIDE_DRAW)
        g = build_game(net)
        fcs = build_fairness(net, g)
        q0 = g.initial_state()
        for goal in [pool_goal(net, pf) for pf in formula_pool(net)] \
                + list(nested_goals(net)):
            verdict = model_check(g, fcs, goal, engine="both")
            inner = {format_formula(arg): set(verdict.state_sets[format_formula(arg)])
                     for arg in goal.args if isinstance(arg, Coalition)}
            pf = PathFormula.from_coalition(Coalition(goal.users, goal.op, tuple(
                Prop(format_formula(arg)) if isinstance(arg, Coalition) else arg
                for arg in goal.args)))
            game = _Relabelled(g, inner)
            if verdict.satisfied:
                assert refute_profile(game, fcs, pf, verdict.witness, q0) is None, \
                    (seed, goal)
                rechecked["witness"] += 1
            else:
                check_first_profile_lasso(game, fcs, pf, verdict.counterexample, q0)
                rechecked["lasso"] += 1
    assert rechecked == {"witness": 191, "lasso": 89}


@pytest.mark.parametrize("engine", ["enumerate", "fixpoint"])
def test_outermost_coalitions_at_q0_alone_keep_the_verdict(engine):
    # the plain report's labelling decides each coalition under no other
    # coalition at q0 alone; the verdict and its evidence are those of the
    # labelling at every state, and no partial state sets are returned
    seen = set()
    for net, goals in report_goals():
        g = build_game(net)
        fcs = build_fairness(net, g)
        for goal in goals:
            full = model_check(g, fcs, goal, engine=engine)
            alone = model_check(g, fcs, goal, engine=engine, every_state=False)
            assert (alone.satisfied, alone.witness, alone.counterexample, alone.reason) \
                == (full.satisfied, full.witness, full.counterexample, full.reason), \
                (net.name, format_formula(goal))
            assert full.state_sets and alone.state_sets == {}
            seen.add((alone.satisfied, alone.witness is not None,
                      alone.counterexample is not None))
    assert seen >= {(True, True, False), (True, False, False), (False, False, True),
                    (False, False, False)}


def _count_solves(monkeypatch):
    calls = []
    solve = solver._FairGame.solve
    monkeypatch.setattr(solver._FairGame, "solve",
                        lambda self, *args: calls.append(args) or solve(self, *args))
    return calls


@pytest.mark.parametrize("text, goal, satisfied", [
    (chain_net(2), "<<u0,u1>> F x0", True),
    (fixtures.FIG4, "<<u>> F (p0 & p3)", False),
])
def test_fixpoint_at_q0_alone_solves_the_all_free_game_once(monkeypatch, text, goal,
                                                            satisfied):
    # at q0 alone the slot search's first node is the all-free solve from
    # q0, so no up-front solve asks the same question first
    g, fcs = _game(text)
    calls = _count_solves(monkeypatch)
    formula = parse_formula(goal)
    verdict = model_check(g, fcs, formula, engine="fixpoint", every_state=False)
    assert verdict.satisfied == satisfied
    assert len(calls) == 1
    calls.clear()
    verdict = synthesize_fixpoint(g, fcs, PathFormula.from_coalition(formula))
    assert verdict.satisfied == satisfied
    assert len(calls) == 1


def test_fixpoint_probes_the_least_completion_first(monkeypatch):
    # chain(4)'s all-zero profile wins, so the search stops at its root
    # instead of solving once per slot; the witness is pinned as the sha256
    # of its strategy lines
    g, fcs = _game(chain_net(4))
    calls = _count_solves(monkeypatch)
    verdict = model_check(g, fcs, parse_formula("<<u0,u1,u2,u3>> F x0"),
                          engine="fixpoint")
    assert verdict.satisfied
    assert len(calls) <= 2
    assert hashlib.sha256(format_profile(g, verdict.witness).encode()).hexdigest() \
        == "f0d0d2e928ba9cc41404c4f1bffa4c848618f43f0b812daaebabb2475294e778"


def test_fixpoint_slot_search_is_not_bounded_by_recursion():
    g, fcs = _game(chain_net(3))
    slots = sum(1 for a in range(g.user_count) for qi in range(len(g.states))
                if g.d(a, qi) > 1)
    pf = PathFormula.from_coalition(parse_formula("<<u0,u1,u2>> F x0"))
    headroom = 40
    assert slots > headroom
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + headroom)
    try:
        verdict = synthesize_fixpoint(g, fcs, pf)
    finally:
        sys.setrecursionlimit(limit)
    assert verdict.satisfied
    assert verify_profile(g, fcs, verdict.witness, pf).ok


def test_enumerate_sweep_steps_each_product_edge_once(g4, fc4, monkeypatch):
    # every (state, monitor) edge of the unrestricted game, counted with the
    # independent monitor of tests/helpers.py
    q0 = g4.initial_state()
    root = (q0, monitor_start(REACH_BOTH, g4.w(q0)))
    seen, stack, edges = {root}, [root], 0
    while stack:
        qi, mon = stack.pop()
        for per_state in g4.successors:
            for qj in per_state[qi]:
                edges += 1
                target = (qj, monitor_step(REACH_BOTH, mon, g4.w(qj)))
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    calls = []
    step = PathObjective.monitor_step
    monkeypatch.setattr(PathObjective, "monitor_step",
                        lambda self, mon, qi: calls.append(qi) or step(self, mon, qi))
    verdict = synthesize_enumerate(g4, fc4, REACH_BOTH)
    assert not verdict.satisfied    # so the sweep decided every profile
    assert len(calls) <= edges + profile_space(g4)


# -- strategy conversion ----------------------------------------------------------

def test_net_to_game_and_back(g4):
    strategy = NetStrategy("u", {S({"p0", "p2"}): {"t3"},
                                 S({"p1", "p2"}): {"t2"}})
    profile = profile_from_net_strategies(g4, [strategy])
    assert profile == example_profile(g4)
    back = net_strategies_from_profile(g4, profile)
    assert len(back) == 1
    assert back[0].at(S({"p0", "p2"})) == frozenset({"t3"})
    assert back[0].at(S({"p0", "p3"})) == frozenset()


def test_net_to_game_breaks_ties_lexicographically(g4):
    strategy = NetStrategy("u", {S({"p0", "p2"}): {"t2", "t3"}})
    profile = profile_from_net_strategies(g4, [strategy])
    q0 = g4.state_index[S({"p0", "p2"})]
    assert g4.move_label(0, q0, profile.move(0, q0)) == "t2"


def test_empty_net_strategy_becomes_all_idle(g4):
    profile = profile_from_net_strategies(g4, [])
    for qi in range(len(g4.states)):
        assert g4.move_label(0, qi, profile.move(0, qi)) is None


def test_net_to_game_rejects_unknown_state(g4):
    ghost = NetStrategy("u", {S({"p0", "p9"}): {"t3"}})
    with pytest.raises(InputError):
        profile_from_net_strategies(g4, [ghost])


def test_profile_round_trip_through_text(g4):
    profile = example_profile(g4)
    text = format_profile(g4, profile)
    assert "strategy u: {p0,p2} -> t3" in text
    assert parse_profile(g4, text) == profile


def test_parse_profile_rejects_a_repeated_state(g4):
    text = "strategy u: {p0,p2} -> t3\n# a comment\nstrategy u: {p0,p2} -> pass\n"
    with pytest.raises(InputError, match=r"repeated state \{p0,p2\} for user u on line 3, "
                                         r"first set on line 1"):
        parse_profile(g4, text)


@pytest.mark.parametrize("net, goal", [
    (fixtures.FIG4, "<<u>> F ((p0 & p3) | (p1 & p4))"),
    (chain_net(2), "<<u0,u1>> F x0"),
], ids=["F4", "chain2"])
def test_witness_round_trips_through_text(net, goal):
    g, fcs = _game(net)
    witness = model_check(g, fcs, parse_formula(goal), engine="fixpoint").witness
    assert witness is not None
    assert parse_profile(g, format_profile(g, witness)) == witness


@pytest.mark.parametrize("text, message", [
    ("strategy u: {p0,p2} -> t3\nu: {p1,p2} -> t2\n", "strategy file error on line 2"),
    ("strategy v: {p0,p2} -> t3\n", "unknown user 'v' on line 1"),
    ("strategy u: {p0,p9} -> t3\n", r"unknown state \{p0,p9\} on line 1"),
    ("strategy u: {p0,p2} -> t9\n", "move 't9' not available on line 1"),
], ids=["no-keyword", "unknown-user", "unknown-state", "unavailable-move"])
def test_parse_profile_rejections(g4, text, message):
    with pytest.raises(InputError, match=message):
        parse_profile(g4, text)


def test_single_edge_cycle_lasso(g4):
    # with no constraints the all-zero profile's violating component is
    # one product node with an edge to itself: the lasso closes on that edge
    pf = PathFormula.from_coalition(parse_formula("<<u>> G p0"))
    zero = GameProfile((tuple(0 for _ in g4.states),))
    outcome = verify_profile(g4, (), zero, pf)
    assert not outcome.ok
    lasso = outcome.counterexample
    validate_lasso(g4, lasso)
    assert not path_satisfies([g4.w(qi) for qi, _ in lasso.prefix],
                              [g4.w(qi) for qi, _ in lasso.cycle], pf)


@pytest.mark.parametrize("call, message", [
    (lambda g: validate_game_profile(g, GameProfile(())), "profile must cover 1 users"),
    (lambda g: validate_game_profile(g, GameProfile(((3,) * len(g.states),))),
     "move 3 out of range for user u at {p0,p2}"),
    (lambda g: profile_from_net_strategies(g, [NetStrategy("env", {})]),
     "'env' is not a user location"),
    (lambda g: profile_from_net_strategies(g, [NetStrategy("u", {S({"p0", "p3"}): {"t2"}})]),
     "strategy for u chooses t2, not enabled at {p0,p3}"),
    (lambda g: profile_from_net_strategies(
        build_game(parse_net(fixtures.USERONLY), single_user_simplification=True), []),
     "user u must move at {a} (idle move removed by the single-user simplification)"),
], ids=["user-count", "move-range", "owner", "not-enabled", "must-move"])
def test_profile_input_errors(g4, call, message):
    with pytest.raises(InputError) as err:
        call(g4)
    assert str(err.value) == message
