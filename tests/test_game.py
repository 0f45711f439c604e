import itertools
import random

import pytest

from helpers import chain_net, corpus_net, merge_steps, random_valid_play
from petrigames import fixtures, game
from petrigames.errors import BoundExceeded, InputError, PreconditionError
from petrigames.game import (
    LassoComputation,
    build_fairness,
    build_game,
    computation_to_play,
    dot_game,
    fairness_table,
    format_lasso,
    lasso_is_fair,
    parse_lasso,
    play_to_computations,
    stutter_remove,
)
from petrigames.nets import parse_net
from petrigames.unfold import Play, format_play, interleavings, materialise_play, parse_play, \
    validate_play

F4 = parse_net(fixtures.FIG4)
S = frozenset


@pytest.fixture(scope="module")
def g4():
    return build_game(F4)


@pytest.fixture(scope="module")
def fc4(g4):
    return build_fairness(F4, g4)


def q(g, *places):
    return g.state_index[S(places)]


def step(g, marking, player_name, move):
    """(state, canonical vector) for the named player playing a move."""
    qi = g.state_index[S(marking)]
    player = g.player_names.index(player_name)
    j = g.moves[player][qi].index(move)
    return (qi, g.vector_for(qi, player, j))


def evasion_cycle(g):
    """The t0,t3,t5,t1 round trip through {p0,p2}."""
    return (
        step(g, {"p0", "p2"}, "env", "t0"),
        step(g, {"p1", "p2"}, "u", "t3"),
        step(g, {"p1", "p3"}, "env", "t5"),
        step(g, {"p1", "p2"}, "env", "t1"),
    )


def test_build_game_shape(g4):
    assert g4.player_count == 3
    assert g4.player_names == ("u", "env", "scheduler")
    assert len(g4.states) == 6
    user, env, sched = 0, 1, 2
    q0 = q(g4, "p0", "p2")
    assert g4.moves[user][q0] == ("t2", "t3", None)
    assert g4.d(user, q0) == 3
    assert g4.moves[env][q0] == ("t0",)
    for qi in range(len(g4.states)):
        assert g4.d(sched, qi) == g4.user_count + 1 == g4.player_count - 1
    q03 = q(g4, "p0", "p3")
    assert g4.moves[env][q03] == ("t0", "t5")
    assert g4.moves[user][q03] == (None,)


def test_w_is_the_marking(g4):
    for qi, m in enumerate(g4.states):
        assert g4.w(qi) == m


def test_tau_turn_based_determinism(g4):
    for qi in range(len(g4.states)):
        for vec in g4.move_vectors(qi):
            scheduled = vec[g4.scheduler_player]
            expected = g4.apply_move(qi, scheduled, vec[scheduled])
            assert g4.tau(qi, vec) == expected
        # vectors agreeing on the scheduled player's move agree on tau
        for a in range(g4.player_count - 1):
            for j in range(g4.d(a, qi)):
                results = {g4.tau(qi, vec) for vec in g4.move_vectors(qi)
                           if vec[g4.scheduler_player] == a and vec[a] == j}
                assert len(results) == 1


def test_deadlock_net_game():
    net = parse_net(fixtures.DEADLOCK)
    g = build_game(net)
    assert len(g.states) == 1
    assert g.moves[g.env_player][0] == (None,)
    vec = g.vector_for(0, g.env_player, 0)
    assert g.tau(0, vec) == 0


@pytest.mark.parametrize("text", [fixtures.FIG4, chain_net(2)], ids=["F4", "chain2"])
def test_canonical_vectors_hold_a_move_of_every_player(text):
    # the scheduled player's move, every other player's idle move or else
    # its move 0, and the scheduler's move selecting the scheduled player
    g = build_game(parse_net(text))
    bad = []
    for qi in range(len(g.states)):
        for a in range(g.player_count - 1):
            for j in range(g.d(a, qi)):
                vec = g.vector_for(qi, a, j)
                if any(move not in range(g.d(p, qi)) for p, move in enumerate(vec)):
                    bad.append((qi, a, j, vec))
    assert bad == []


def test_user_move_counts_match_enabled_rule(g4):
    from petrigames.nets import enabled_set
    for qi, m in enumerate(g4.states):
        own = [t for t in enabled_set(F4, m) if F4.is_controllable(t)]
        assert g4.d(0, qi) == len(own) + 1
        unc = [t for t in enabled_set(F4, m) if not F4.is_controllable(t)]
        assert g4.d(1, qi) == (len(unc) if unc else 1)


# -- fairness families -----------------------------------------------------------

def test_fairness_families_fig4(g4, fc4):
    names = [fc.name for fc in fc4]
    assert names[:2] == ["schedule:u", "schedule:env"]
    assert "weak:t0" in names and "weak:t5" in names
    # controllable transitions get no environment constraint
    assert "weak:t2" not in names and "weak:t3" not in names
    # every state enables t0 or t1, so no user progress constraints
    assert not any(n.startswith("progress:") for n in names)

    weak_t0 = next(fc for fc in fc4 if fc.name == "weak:t0")
    q0 = q(g4, "p0", "p2")
    assert weak_t0.at(q0) == frozenset({0})
    assert not weak_t0.enabled(q(g4, "p1", "p2"))


def test_conflicting_uncontrollables_grouped():
    # two environment transitions sharing a pre-place: firing either
    # counts for the other's constraint
    text = """\
net race
locations env u
place p @env init
place x @env
place y @env
trans a @env pre p post x
trans b @env pre p post y
"""
    net = parse_net(text)
    g = build_game(net)
    fcs = build_fairness(net, g)
    weak_a = next(fc for fc in fcs if fc.name == "weak:a")
    q0 = g.state_index[S({"p"})]
    moves = g.moves[g.env_player][q0]
    assert weak_a.at(q0) == frozenset({moves.index("a"), moves.index("b")})


def test_user_progress_constraints_on_useronly_net():
    net = parse_net(fixtures.USERONLY)
    g = build_game(net)
    fcs = build_fairness(net, g)
    progress = [fc for fc in fcs if fc.name.startswith("progress:")]
    assert len(progress) == 2  # at {a} and at {b}; {c} is a deadlock
    states = {list(fc.moves)[0] for fc in progress}
    assert states == {g.state_index[S({"a"})], g.state_index[S({"b"})]}
    # no uncontrollable transitions anywhere: family (b) is empty
    assert not any(fc.name.startswith("weak:") for fc in fcs)


def test_single_user_simplification():
    net = parse_net(fixtures.USERONLY)
    g = build_game(net, single_user_simplification=True)
    fcs = build_fairness(net, g)
    assert not any(fc.name.startswith("progress:") for fc in fcs)
    qa = g.state_index[S({"a"})]
    assert g.moves[0][qa] == ("s",)   # idle move removed at user-only states
    qc = g.state_index[S({"c"})]
    assert g.moves[0][qc] == (None,)  # deadlock state keeps the idle move


# -- lasso fairness ----------------------------------------------------------------

def test_evasion_cycle_is_fair(g4, fc4):
    lasso = LassoComputation((), evasion_cycle(g4))
    report = lasso_is_fair(g4, fc4, lasso)
    assert report.fair, report.violated


def test_env_only_cycle_violates_scheduler_fairness(g4, fc4):
    cycle = (step(g4, {"p0", "p2"}, "env", "t0"),
             step(g4, {"p1", "p2"}, "env", "t1"))
    report = lasso_is_fair(g4, fc4, LassoComputation((), cycle))
    assert not report.fair
    assert "schedule:u" in report.violated


def test_starving_a_persistent_uncontrollable_is_unfair(g4, fc4):
    cycle = (step(g4, {"p0", "p2"}, "u", "t3"),
             step(g4, {"p0", "p3"}, "env", "t5"))
    report = lasso_is_fair(g4, fc4, LassoComputation((), cycle))
    assert not report.fair
    assert "weak:t0" in report.violated


def test_deadlock_self_loop_is_fair_when_everyone_is_scheduled():
    net = parse_net(fixtures.DEADLOCK)
    g = build_game(net)
    fcs = build_fairness(net, g)
    user_idle = (0, g.vector_for(0, 0, g.idle_move(0, 0)))
    env_idle = (0, g.vector_for(0, g.env_player, g.idle_move(g.env_player, 0)))
    fair = lasso_is_fair(g, fcs, LassoComputation((), (user_idle, env_idle)))
    assert fair.fair
    env_only = lasso_is_fair(g, fcs, LassoComputation((), (env_idle,)))
    assert not env_only.fair and "schedule:u" in env_only.violated


def test_lasso_validation(g4):
    broken = LassoComputation((), (step(g4, {"p0", "p2"}, "env", "t0"),))
    with pytest.raises(InputError):
        lasso_is_fair(g4, (), broken)  # cycle does not close


# -- stutter removal ----------------------------------------------------------------

def test_stutter_remove(g4):
    q0 = q(g4, "p0", "p2")
    idle = (q0, g4.vector_for(q0, 0, g4.idle_move(0, q0)))
    prefix = (idle, idle)
    report = stutter_remove(g4, LassoComputation(prefix, evasion_cycle(g4)))
    assert report == ((), (S({"p0", "p2"}), S({"p1", "p2"}), S({"p1", "p3"}),
                           S({"p1", "p2"})))
    # all-idle cycle collapses to a finite sequence
    finite = stutter_remove(g4, LassoComputation((), (idle,)))
    assert finite == ((S({"p0", "p2"}),), ())


def test_stutter_remove_matches_twin_without_stutters(g4):
    base = LassoComputation((), evasion_cycle(g4))
    q13 = q(g4, "p1", "p3")
    idle = (q13, g4.vector_for(q13, 0, g4.idle_move(0, q13)))
    padded = LassoComputation((), base.cycle[:2] + (idle,) + base.cycle[2:])
    assert stutter_remove(g4, base) == stutter_remove(g4, padded)


# -- translations ----------------------------------------------------------------

def test_computation_to_play_evasion(g4, fc4):
    lasso = LassoComputation((), evasion_cycle(g4))
    play = computation_to_play(g4, fc4, lasso)
    assert play.steps == ()
    assert play.cycle == ("t0", "t3", "t5", "t1")
    assert validate_play(F4, play) == []


def test_computation_to_play_drops_stutters(g4, fc4):
    q0 = q(g4, "p0", "p2")
    idle = (q0, g4.vector_for(q0, 0, g4.idle_move(0, q0)))
    lasso = LassoComputation((idle,), evasion_cycle(g4))
    play = computation_to_play(g4, fc4, lasso)
    twin = computation_to_play(g4, fc4, LassoComputation((), evasion_cycle(g4)))
    assert play == twin


def test_computation_to_play_requires_fairness(g4, fc4):
    cycle = (step(g4, {"p0", "p2"}, "env", "t0"),
             step(g4, {"p1", "p2"}, "env", "t1"))
    with pytest.raises(PreconditionError):
        computation_to_play(g4, fc4, LassoComputation((), cycle))
    # the t3,(t5,t3) lasso starves the permanently enabled t0, so it is
    # unfair and rejected as well
    starved = LassoComputation(
        (step(g4, {"p0", "p2"}, "u", "t3"),),
        (step(g4, {"p0", "p3"}, "env", "t5"),
         step(g4, {"p0", "p2"}, "u", "t3")))
    with pytest.raises(PreconditionError) as err:
        computation_to_play(g4, fc4, starved)
    assert "weak:t0" in str(err.value)


def test_play_to_computations_linearises_concurrent_events(g4, fc4):
    play = Play(steps=(("t0", "t3"),), cycle=("t5", "t1", "t0", "t3"))
    lassos = play_to_computations(g4, fc4, play)
    prefixes = set()
    for lam in lassos:
        labels = []
        for qi, vec in lam.prefix:
            scheduled = vec[g4.scheduler_player]
            labels.append(g4.move_label(scheduled, qi, vec[scheduled]))
        prefixes.add(tuple(labels))
    assert prefixes == {("t0", "t3"), ("t3", "t0")}
    assert any(lasso_is_fair(g4, fc4, lam).fair for lam in lassos)


def test_play_to_computations_single_linearisation(g4, fc4):
    play = Play.from_sequence(["t3"], cycle=["t0", "t5", "t3", "t1"])
    lassos = play_to_computations(g4, fc4, play)
    assert len(lassos) == 1
    assert lasso_is_fair(g4, fc4, lassos[0]).fair


def test_play_to_computations_deadlock():
    net = parse_net(fixtures.USERONLY)
    g = build_game(net)
    fcs = build_fairness(net, g)
    play = Play.from_sequence(["s", "r"])
    lassos = play_to_computations(g, fcs, play)
    assert len(lassos) >= 1
    lam = next(l for l in lassos if lasso_is_fair(g, fcs, l).fair)
    # the cycle idles at the deadlock state
    for qi, vec in lam.cycle:
        assert g.states[qi] == S({"c"})
        scheduled = vec[g.scheduler_player]
        assert g.move_label(scheduled, qi, vec[scheduled]) is None


def test_play_to_computations_rejects_invalid_play(g4, fc4):
    bad = Play.from_sequence(["t3"], cycle=["t5", "t3"])  # starves t0
    with pytest.raises(PreconditionError):
        play_to_computations(g4, fc4, bad)


def test_play_to_computations_draws_only_bound_orders(monkeypatch):
    # chain(8): eight concurrent user choices, then eight concurrent undos;
    # each step group has 8! = 40320 orders
    net = parse_net(chain_net(8))
    g = build_game(net)
    fcs = build_fairness(net, g)
    play = parse_play(" ".join("+".join(f"{t}{i}" for i in range(8))
                               for t in ("a", "ra")) + "\ncycle: te01 te10\n")
    drawn = []
    interleavings = game.interleavings

    def counted(bp, events):
        drawn.append(0)
        for order in interleavings(bp, events):
            drawn[-1] += 1
            yield order

    monkeypatch.setattr(game, "interleavings", counted)
    lassos = play_to_computations(g, fcs, play, bound=1)
    assert len(drawn) == 2 and max(drawn) <= 1
    assert any(lasso_is_fair(g, fcs, lam).fair for lam in lassos)


def _walk_labels(g, qi, labels):
    """Fire ``labels`` from ``qi``, each scheduled for its owner: the steps
    and the state reached."""
    steps = []
    for t in labels:
        player = g.player_names.index(g.net.location_of(t))
        steps.append((qi, g.vector_for(qi, player, g.moves[player][qi].index(t))))
        qi = g.tau(*steps[-1])
    return steps, qi


def test_play_orders_end_at_one_state_and_need_no_walk_cache():
    """On valid plays with runs of prefix steps merged into ``+`` steps,
    every order of a gap ends at one state, and the computations equal
    those walked from scratch for every choice of orders."""
    rng = random.Random(1)
    bound = 100
    nets = [parse_net(getattr(fixtures, name)) for name in
            ("FIG4", "TOGGLE2", "DEADLOCK", "USERONLY", "COOP2")] + \
        [corpus_net(seed) for seed in range(1, 61)]
    several = 0
    for net in nets:
        g = build_game(net)
        fcs = build_fairness(net, g)
        for _ in range(2):
            play = merge_steps(random_valid_play(net, rng), rng)
            mat = materialise_play(net, play)
            gaps = [[[mat.bp.events[e].label for e in order]
                     for order in interleavings(mat.bp, fired)]
                    for fired in mat.step_events[:mat.cycle_starts_at]]
            qi = g.initial_state()
            for orders in gaps:
                ends = {_walk_labels(g, qi, order)[1] for order in orders}
                assert len(ends) == 1, format_play(play)
                (qi,) = ends
                several += len(orders) > 1

            expected = []
            for choice in itertools.islice(itertools.product(*gaps), bound):
                prefix, qi = _walk_labels(g, g.initial_state(), sum(choice, []))
                if play.cycle:
                    cycle = _walk_labels(g, qi, play.cycle)[0]
                else:
                    idle = g.idle_move(g.env_player, qi)
                    cycle = [(qi, g.vector_for(qi, g.env_player, idle))]
                expected.append(LassoComputation(tuple(prefix), tuple(cycle)))
            lassos = play_to_computations(g, fcs, play, bound=bound)
            repaired = not any(lasso_is_fair(g, fcs, lam).fair for lam in expected)
            assert tuple(lassos[:len(expected)]) == tuple(expected)
            assert len(lassos) == len(expected) + repaired
    assert several


@pytest.mark.parametrize("bound", [0, -1])
def test_play_to_computations_rejects_a_non_positive_bound(g4, fc4, bound):
    play = Play(steps=(("t0", "t3"),), cycle=("t5", "t1", "t0", "t3"))
    with pytest.raises(BoundExceeded) as err:
        play_to_computations(g4, fc4, play, bound=bound)
    assert str(err.value) == f"no computation within linearisation bound {bound}"


def test_round_trip_play_computation_play(g4, fc4):
    play = Play.from_sequence(["t3"], cycle=["t0", "t5", "t3", "t1"])
    lassos = play_to_computations(g4, fc4, play)
    fair = next(l for l in lassos if lasso_is_fair(g4, fc4, l).fair)
    back = computation_to_play(g4, fc4, fair)
    assert back.cycle == play.cycle
    assert back.steps == (("t3",),)


# -- files and exports ----------------------------------------------------------------

def test_lasso_file_round_trip(g4, fc4):
    lasso = LassoComputation((step(g4, {"p0", "p2"}, "u", "t3"),),
                             (step(g4, {"p0", "p3"}, "env", "t0"),
                              step(g4, {"p1", "p3"}, "env", "t5"),
                              step(g4, {"p1", "p2"}, "u", "t2"),
                              step(g4, {"p1", "p4"}, "env", "t4"),
                              step(g4, {"p1", "p2"}, "env", "t1"),
                              step(g4, {"p0", "p2"}, "u", "t3"),))
    text = format_lasso(g4, lasso)
    assert parse_lasso(g4, text) == lasso
    # idle steps round-trip through pass@ tokens
    q0 = q(g4, "p0", "p2")
    idle = (q0, g4.vector_for(q0, 0, g4.idle_move(0, q0)))
    with_idle = LassoComputation((idle,), evasion_cycle(g4))
    assert parse_lasso(g4, format_lasso(g4, with_idle)) == with_idle


def test_lasso_files_reject_a_trailing_line(g4):
    # play files read a 'trailing:' line, lasso files have no use for one
    text = format_play(Play(steps=(("t3",),), trailing=("t5",)))
    with pytest.raises(InputError, match="^lasso files cannot have trailing events$"):
        parse_lasso(g4, text)


def test_dot_and_table_are_deterministic(g4, fc4):
    g_twin = build_game(F4)
    fc_twin = build_fairness(F4, g_twin)
    assert "".join(dot_game(g4)) == "".join(dot_game(g_twin))
    assert "".join(fairness_table(g4, fc4)) == "".join(fairness_table(g_twin, fc_twin))
    assert '"{p0,p2}"' in "".join(dot_game(g4))


@pytest.mark.parametrize("call, message", [
    (lambda g: g.tau(0, (0, 0)), "move vector must have 3 components"),
    (lambda g: g.move_label(0, 0, 3), "move 3 out of range for player u at state {p0,p2}"),
], ids=["tau-length", "move-range"])
def test_game_input_errors(g4, call, message):
    with pytest.raises(InputError) as err:
        call(g4)
    assert str(err.value) == message
