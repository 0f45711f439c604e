import random
import sys

import pytest

from helpers import chain_net, formula_pool, monitor_start, monitor_step, nested_goals, \
    refute_profile, stack_depth
from petrigames import fixtures, solver
from petrigames.errors import BoundExceeded, InputError
from petrigames.formulas import Coalition, PathFormula, format_formula, holds_in, \
    parse_formula
from petrigames.game import build_fairness, build_game, lasso_is_fair, stutter_remove
from petrigames.nets import marking_key, parse_net
from petrigames.randnet import random_net
from petrigames.solver import (
    GameProfile,
    PathObjective,
    full_memory_from_cut_strategy,
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
    verify_profile,
)
from petrigames.unfold import NetStrategy, unfold_prefix

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


def test_engine_both_mode(g4, fc4):
    verdict = synthesize(g4, fc4, REACH_EITHER, engine="both")
    assert verdict.satisfied
    with pytest.raises(InputError):
        synthesize(g4, fc4, REACH_EITHER, engine="quantum")


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
        net = random_net(seed)
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
        net = random_net(seed)
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


def _pool_goal(net, pf):
    args = (pf.left,) if pf.op == "G" else (pf.left, pf.right)
    return Coalition(tuple(net.users), pf.op, args)


def test_fixpoint_state_sets_match_enumerate_on_corpus():
    for seed in range(1, 21):
        net = random_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            formula = _pool_goal(net, pf)
            exhaustive = model_check(g, fcs, formula, engine="enumerate")
            labelled = model_check(g, fcs, formula, engine="fixpoint")
            assert labelled.state_sets == exhaustive.state_sets, (seed, pf)
            assert labelled.satisfied == exhaustive.satisfied, (seed, pf)
            assert labelled.witness == exhaustive.witness, (seed, pf)


def _violating_component(game, profile, root):
    refutation = solver._refute(game, profile, root)
    return refutation is not None and refutation[2] is not None


@pytest.mark.parametrize("fair", [True, False])
def test_arena_solve_matches_exact_profile_check(fair):
    # the fair game's answer against the exact check of one profile: equal on
    # complete profiles, sound on partial ones and on the all-states region
    rng = random.Random(7)
    partial_wins = 0
    for seed in range(1, 31):
        net = random_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g) if fair else ()
        n = len(g.states)
        profiles = [(p, [j for per_state in p.moves for j in per_state])
                    for p in iter_profiles(g)]
        for pf in formula_pool(net):
            game = solver._FairGame(g, fcs, PathObjective.from_path_formula(g, pf))
            lost = game.region()
            for qi in range(n):
                root = game.start(qi)
                refuted = [_violating_component(game, p, root) for p, _ in profiles]
                for (_, full), violated in zip(profiles, refuted):
                    assert game.solve(full, root) == violated, (seed, pf, qi, full)
                assert qi not in lost or all(refuted), (seed, pf, qi)
                for _ in range(4):
                    fixed = [rng.randrange(g.d(a, q)) if rng.random() < 0.5 else None
                             for a in range(g.user_count) for q in range(n)]
                    if not game.solve(fixed, root):
                        continue
                    partial_wins += 1
                    for (_, full), violated in zip(profiles, refuted):
                        if all(j in (None, k) for j, k in zip(fixed, full)):
                            assert violated, (seed, pf, qi, fixed, full)
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
def test_refute_matches_independent_profile_check(fair):
    # won, no fair computation, or the same first violating component
    rng = random.Random(11)
    violated = 0
    for seed in range(1, 31):
        net = random_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g) if fair else ()
        profiles = _sample_profiles(g, rng)
        for pf in formula_pool(net):
            game = solver._FairGame(g, fcs, PathObjective.from_path_formula(g, pf))
            for qi in range(len(g.states)):
                for profile in profiles:
                    expected = refute_profile(g, fcs, pf, profile, qi)
                    refutation = solver._refute(game, profile, game.start(qi))
                    if refutation is None:
                        got = None
                    elif refutation[2] is None:
                        got = "no fair computation"
                    else:
                        got = set(refutation[2])
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
        net = random_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            verdict = model_check(g, fcs, _pool_goal(net, pf), engine="fixpoint")
            printed += verdict.counterexample is not None
    assert printed > 0
    assert len(built) == printed


def test_enumerate_builds_only_the_returned_lasso(monkeypatch):
    built = _count_calls(monkeypatch, "_extract_lasso")
    returned = 0
    for seed in range(1, 21):
        net = random_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for pf in formula_pool(net):
            verdict = synthesize_enumerate(g, fcs, pf)
            returned += verdict.counterexample is not None
    assert returned > 0
    assert len(built) == returned


def test_enumerate_labels_each_move_once(monkeypatch):
    # the arena's label table tests each constraint against each move once,
    # however many profiles and product rows revisit it; the printed
    # lasso's own tests stay within the same bound
    taken = _count_calls(monkeypatch, "_edge_taken")
    for seed in range(1, 21):
        net = random_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        moves = sum(1 for qi in range(len(g.states)) for _ in g.edges(qi))
        for pf in formula_pool(net):
            before = len(taken)
            synthesize_enumerate(g, fcs, pf)
            assert len(taken) - before <= len(fcs) * moves, (seed, pf)


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
    assert not verdict.satisfied    # so the sweep verified every profile
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


def test_cut_keyed_strategy_conversion(g4):
    bp = unfold_prefix(F4, 2)
    gamma0 = frozenset(bp.minimal)
    choice = {gamma0: {"t3"}}
    mapping = full_memory_from_cut_strategy(bp, g4, "u", choice)
    initial_key = (S({"p0", "p2"}),)
    assert mapping[initial_key] == "t3"
    # interleaving-closed: every key is a stutter-free marking sequence
    for key, value in mapping.items():
        assert all(isinstance(m, frozenset) for m in key)
        assert value is None or value in F4.transitions
    with pytest.raises(InputError):
        full_memory_from_cut_strategy(bp, g4, "u", {frozenset({"zzz"}): {"t3"}})
