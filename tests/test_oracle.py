"""Cross-validation of the profile verifier against brute-force lasso
enumeration, plus monitor corner cases."""

import random

from helpers import corpus_net
from petrigames import fixtures
from petrigames.formulas import (
    And,
    Not,
    PathFormula,
    Prop,
    TrueConst,
    parse_formula,
    path_satisfies,
)
from petrigames.game import LassoComputation, build_fairness, build_game, lasso_is_fair
from petrigames.nets import parse_net
from petrigames.solver import (
    PathObjective,
    iter_profiles,
    profile_space,
    synthesize_enumerate,
    synthesize_fixpoint,
    verify_profile,
)


def restricted_edges(g, profile, qi):
    out = []
    for a in range(g.user_count):
        j = profile.move(a, qi)
        out.append((a, j, g.apply_move(qi, a, j)))
    for j in range(g.d(g.env_player, qi)):
        out.append((g.env_player, j, g.apply_move(qi, g.env_player, j)))
    return out


def brute_force_lassos(g, profile, q0, max_len):
    """Every lasso of total length <= max_len in the profile-restricted
    graph, as (prefix steps, cycle steps) with canonical vectors."""
    edges = {qi: restricted_edges(g, profile, qi)
             for qi in range(len(g.states))}

    def vec(qi, a, j):
        v = []
        for p in range(g.user_count):
            v.append(j if p == a else profile.move(p, qi))
        v.append(j if a == g.env_player else 0)
        v.append(a)
        return (qi, tuple(v))

    results = []

    def walk(qi, steps, states):
        if len(steps) >= max_len:
            return
        for a, j, qj in edges[qi]:
            nxt = steps + [vec(qi, a, j)]
            # close the cycle at every earlier occurrence of qj
            for cut, state in enumerate(states):
                if state == qj:
                    results.append(LassoComputation(tuple(nxt[:cut]),
                                                    tuple(nxt[cut:])))
            walk(qj, nxt, states + [qj])

    walk(q0, [], [q0])
    return results


def violates(g, lam, pf_formula):
    prefix = [g.w(q) for q, _ in lam.prefix]
    cycle = [g.w(q) for q, _ in lam.cycle]
    return not path_satisfies(prefix, cycle, pf_formula)


def test_verifier_agrees_with_brute_force_lasso_enumeration():
    rng = random.Random("oracle")
    for seed in range(401, 431):
        net = corpus_net(seed)
        g = build_game(net)
        if len(g.states) > 5:
            continue  # keep the brute-force space tractable
        fcs = build_fairness(net, g)
        places = sorted(net.places)
        formulas = [
            PathFormula("U", TrueConst(), Prop(rng.choice(places))),
            PathFormula("G", Not(Prop(rng.choice(places)))),
            PathFormula("U", Prop(rng.choice(places)), Prop(rng.choice(places))),
        ]
        profiles = list(iter_profiles(g))
        if profile_space(g) > 12:
            profiles = [profiles[0], profiles[-1],
                        profiles[rng.randrange(len(profiles))]]
        for profile in profiles:
            lassos = brute_force_lassos(g, profile, g.initial_state(), max_len=7)
            # fairness reads only the cycle, and many lassos share one
            cycle_fair = {}
            for lam in lassos:
                if lam.cycle not in cycle_fair:
                    cycle_fair[lam.cycle] = lasso_is_fair(g, fcs, lam).fair
            fair = [lam for lam in lassos if cycle_fair[lam.cycle]]
            for pf in formulas:
                objective = PathObjective.from_path_formula(g, pf)
                outcome = verify_profile(g, fcs, profile, objective)
                brute_violation = any(violates(g, lam, pf) for lam in fair)
                # a short fair violating lasso refutes the profile
                assert not (outcome.ok and brute_violation), (seed, str(pf))
                # a short fair lasso refutes a vacuity verdict
                if fair and not outcome.ok:
                    assert "no fair computation" not in outcome.reason, seed


def test_until_pending_forever_is_a_violation():
    # the environment can hold p0|p1 true forever without ever producing
    # p0&p3 with the user idle: pending-forever cycles must count
    F4 = parse_net(fixtures.FIG4)
    g = build_game(F4)
    fcs = build_fairness(F4, g)
    pf = PathFormula("U", parse_formula("p0 | p1"), parse_formula("p0 & p3"))
    idle = tuple(g.idle_move(0, qi) for qi in range(len(g.states)))
    from petrigames.solver import GameProfile
    outcome = verify_profile(g, fcs, GameProfile((idle,)), pf)
    assert not outcome.ok
    lam = outcome.counterexample
    assert lasso_is_fair(g, fcs, lam).fair
    assert not path_satisfies([g.w(q) for q, _ in lam.prefix],
                              [g.w(q) for q, _ in lam.cycle], pf)


def test_trivially_satisfied_until_at_initial_state():
    net = parse_net(fixtures.DEADLOCK)
    g = build_game(net)
    fcs = build_fairness(net, g)
    pf = PathFormula("U", TrueConst(), Prop("p0"))  # p0 is initially marked
    assert synthesize_enumerate(g, fcs, pf).satisfied
    assert synthesize_fixpoint(g, fcs, pf).satisfied


def test_single_user_simplification_end_to_end():
    # with the idle move removed at user-only states, the lone user is
    # forced to progress: reaching c becomes unavoidable, hence winnable
    net = parse_net(fixtures.USERONLY)
    g = build_game(net, single_user_simplification=True)
    fcs = build_fairness(net, g)
    pf = PathFormula("U", TrueConst(), Prop("c"))
    enum = synthesize_enumerate(g, fcs, pf)
    fix = synthesize_fixpoint(g, fcs, pf)
    assert enum.satisfied and fix.satisfied
    # the general construction agrees via the user progress constraints
    plain_g = build_game(net)
    plain_fcs = build_fairness(net, plain_g)
    assert synthesize_enumerate(plain_g, plain_fcs, pf).satisfied
