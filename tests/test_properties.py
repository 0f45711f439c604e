"""Cross-module invariants exercised over the random corpus."""

import random

from helpers import corpus_net, merge_steps, random_fair_lasso, random_valid_play
from petrigames.formulas import PathFormula, TrueConst, parse_formula, path_satisfies
from petrigames.game import (
    build_fairness,
    build_game,
    computation_to_play,
    lasso_is_fair,
    play_to_computations,
    stutter_remove,
)
from petrigames.nets import enabled_set, parse_net, reachability_graph
from petrigames.solver import (
    PathObjective,
    iter_profiles,
    profile_space,
    synthesize_enumerate,
    verify_profile,
)
from petrigames.unfold import validate_play
from petrigames import fixtures

NETS = [corpus_net(seed) for seed in range(301, 321)]
GAMES = [(net, build_game(net), None) for net in NETS]
GAMES = [(net, g, build_fairness(net, g)) for net, g, _ in GAMES]


def sample_objectives(net, g):
    rng = random.Random(f"props:{net.name}")
    places = sorted(net.places)
    from petrigames.formulas import And, Not, Or, Prop
    return [
        PathObjective.from_path_formula(g, PathFormula("U", TrueConst(),
                                                       Prop(rng.choice(places)))),
        PathObjective.from_path_formula(g, PathFormula("G", Not(Prop(rng.choice(places))))),
    ]


def test_witness_and_counterexample_soundness():
    for net, g, fcs in GAMES:
        for objective in sample_objectives(net, g):
            verdict = synthesize_enumerate(g, fcs, objective)
            if verdict.satisfied:
                assert verify_profile(g, fcs, verdict.witness, objective).ok
            elif verdict.counterexample is not None:
                lam = verdict.counterexample
                assert lasso_is_fair(g, fcs, lam).fair
                prefix = [g.w(q) for q, _ in lam.prefix]
                cycle = [g.w(q) for q, _ in lam.cycle]
                pf_formula = PathFormula(
                    "G" if objective.op == "G" else "U",
                    _table_to_formula(g, objective.left),
                    _table_to_formula(g, objective.right) if objective.right else None)
                assert not path_satisfies(prefix, cycle, pf_formula)


def _table_to_formula(g, table):
    # rebuild a predicate equivalent to a per-state truth table
    from petrigames.formulas import Prop, Or, And, Not, TrueConst

    class _Table:
        pass

    # evaluate via marking membership: states are markings, so a table is
    # expressible as a disjunction of exact-marking conjunctions
    true_markings = [g.states[qi] for qi, hit in enumerate(table) if hit]
    places = sorted(g.net.places)

    def exact(m):
        node = TrueConst()
        for p in places:
            atom = Prop(p) if p in m else Not(Prop(p))
            node = And(node, atom)
        return node

    if not true_markings:
        return Not(TrueConst())
    node = exact(true_markings[0])
    for m in true_markings[1:]:
        node = Or(node, exact(m))
    return node


def test_nonvacuity_matches_fair_computation_existence():
    # verify_profile with the trivial goal is exactly the question "does a
    # fair computation exist under this profile"; on nets without blocked
    # user-only states the answer is yes for every profile
    truth = PathFormula("G", TrueConst())
    for net, g, fcs in GAMES[:10]:
        objective = PathObjective.from_path_formula(g, truth)
        profiles = list(iter_profiles(g)) if profile_space(g) <= 64 else \
            [next(iter_profiles(g))]
        for profile in profiles:
            outcome = verify_profile(g, fcs, profile, objective)
            if not outcome.ok:
                assert "no fair computation" in outcome.reason
                # the offending profile must idle some user at a state where
                # only controllable transitions are enabled
                blocked = False
                for qi, m in enumerate(g.states):
                    enabled = enabled_set(net, m)
                    if enabled and all(net.is_controllable(t) for t in enabled):
                        idles = all(
                            g.move_label(a, qi, profile.move(a, qi)) is None
                            for a in range(g.user_count))
                        blocked = blocked or idles
                assert blocked


def test_repaired_computation_is_stutter_equivalent_to_its_base():
    rng = random.Random("repair")
    for net, g, fcs in GAMES:
        for _ in range(3):
            play = random_valid_play(net, rng)
            if validate_play(net, play):
                continue
            lassos = play_to_computations(g, fcs, play)
            plain_fair = [lam for lam in lassos
                          if lasso_is_fair(g, fcs, lam).fair]
            if len(plain_fair) == len(lassos):
                continue
            # the repaired member is the base linearisation plus idle steps
            base, repaired = lassos[0], lassos[-1]
            assert repaired.prefix == base.prefix
            assert repaired.cycle[: len(base.cycle)] == base.cycle
            assert stutter_remove(g, base) == stutter_remove(g, repaired)


def test_computations_carry_the_fairness_of_each():
    # the plain computations share one cycle and so one fairness decision;
    # each must still agree with lasso_is_fair on its own lasso.  Merged
    # '+' steps give plays with several plain computations.
    rng = random.Random("fair-once")
    outcomes = set()
    for seed in range(1, 41):
        net = corpus_net(seed)
        g = build_game(net)
        fcs = build_fairness(net, g)
        for _ in range(3):
            base = random_valid_play(net, rng)
            for play in (base, merge_steps(base, rng)):
                if validate_play(net, play):
                    continue
                lassos = play_to_computations(g, fcs, play)
                assert lassos.fair == tuple(lasso_is_fair(g, fcs, lam).fair
                                            for lam in lassos)
                fair = all(lassos.fair)
                outcomes.add((fair, len(lassos) - (not fair) > 1))
    # all fair, and plain ones repaired, each with several plain computations
    assert {(True, True), (False, True)} <= outcomes


def test_round_trip_fair_lasso_play_computation():
    rng = random.Random("roundtrip")
    for net, g, fcs in GAMES[:10]:
        for _ in range(5):
            lam = random_fair_lasso(g, fcs, rng)
            play = computation_to_play(g, fcs, lam)
            back = play_to_computations(g, fcs, play)
            fair = [x for x in back if lasso_is_fair(g, fcs, x).fair]
            assert fair
            # the stutter-free projection of the original is among the
            # projections of the round-tripped family
            assert stutter_remove(g, lam) in {stutter_remove(g, x) for x in back}


def test_graph_and_game_move_counts_agree_on_fixtures():
    for text in (fixtures.FIG4, fixtures.TOGGLE2, fixtures.USERONLY,
                 fixtures.COOP2, fixtures.DEADLOCK):
        net = parse_net(text)
        g = build_game(net)
        graph = reachability_graph(net)
        assert set(g.states) == set(graph.states)
        for qi, m in enumerate(g.states):
            non_idle = {g.move_label(a, qi, j)
                        for a in range(g.player_count - 1)
                        for j in range(g.d(a, qi))} - {None}
            assert non_idle == set(enabled_set(net, m))
