import hashlib
import itertools
import random

import pytest

from helpers import WIDE_DRAW, chain_net, corpus_net, merge_steps, random_play_walk, \
    random_valid_play, reference_consumers, reference_cut_order, reference_is_cut, \
    reference_is_run, reference_play_diagnostics, reference_relation, undo_play
from petrigames import fixtures
from petrigames.errors import BoundExceeded, InputError, PreconditionError
from petrigames.nets import enabled_set, fire, format_net, parse_net, reachability_graph
from petrigames.randnet import random_net
from petrigames.unfold import (
    NetStrategy,
    Play,
    check_strategy,
    consistent_with,
    cut_order,
    cut_step,
    dot_prefix,
    enabled_events,
    events_before_cut,
    format_play,
    initial_cut,
    is_cut,
    is_maximal_refinement,
    is_run,
    materialise_play,
    parse_play,
    relation_query,
    unfold_prefix,
    validate_play,
)

F4 = parse_net(fixtures.FIG4)

#: the fixtures that are contact-free, so that they unfold
UNFOLDABLE = ("FIG4", "TOGGLE2", "DEADLOCK", "USERONLY", "COOP2")


def oracle_event_count(net, depth):
    """Independent oracle: enumerate firing sequences of length <= depth and
    merge occurrences under the equal-pre-set/equal-label rule.

    Events are identified recursively by (transition, frozenset of
    pre-condition keys), conditions by (place, producing event key).
    """
    events = set()

    def walk(cut, steps_left):
        # cut: mapping place -> condition key
        if steps_left == 0:
            return
        for t in sorted(net.transitions):
            if not (net.pre(t) <= set(cut)) or (net.post(t) & set(cut)):
                continue
            ekey = (t, frozenset(cut[p] for p in net.pre(t)))
            events.add(ekey)
            nxt = dict(cut)
            for p in net.pre(t):
                del nxt[p]
            for p in net.post(t):
                nxt[p] = (p, ekey)
            walk(nxt, steps_left - 1)

    walk({p: (p, None) for p in net.initial}, depth)
    return len(events)


def test_depth0_prefix_is_initial_cut():
    bp = unfold_prefix(F4, 0)
    assert len(bp.events) == 0
    assert len(bp.conditions) == 2
    assert bp.mu(initial_cut(bp)) == frozenset({"p0", "p2"})


def test_depth1_events_match_enabled_set():
    bp = unfold_prefix(F4, 1)
    labels = sorted(e.label for e in bp.events.values())
    assert labels == ["t0", "t2", "t3"]
    assert set(labels) == set(enabled_set(F4, F4.initial))


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_prefix_event_count_matches_firing_oracle(depth):
    bp = unfold_prefix(F4, depth)
    assert len(bp.events) == oracle_event_count(F4, depth)


ONE_STEP = parse_net("net onestep\nlocations env\nplace a @env init\nplace b @env\n"
                     "trans t @env pre a post b\n")


@pytest.mark.parametrize("net, last", [(parse_net(fixtures.DEADLOCK), 0), (ONE_STEP, 1)],
                         ids=["deadlock", "one-step"])
def test_a_finite_unfolding_stops_at_its_last_layer(net, last):
    # a layer that adds no event is the last: the search stops there, so
    # any depth beyond it returns at once and the same prefix
    shallow = unfold_prefix(net, last)
    deep = unfold_prefix(net, 10**9)
    assert (deep.conditions, deep.events) == (shallow.conditions, shallow.events)


def test_firing_sequences_bijective_with_event_chains():
    # every firing sequence of length <= 4 corresponds to a unique event
    # chain in the prefix, and conversely
    depth = 4
    bp = unfold_prefix(F4, depth)

    sequences = set()

    def walk(m, seq):
        if len(seq) == depth:
            return
        for t in sorted(enabled_set(F4, m)):
            sequences.add(seq + (t,))
            walk(fire(F4, m, t), seq + (t,))

    walk(F4.initial, ())

    chains = set()

    def chain_walk(cut, seq):
        if len(seq) == depth:
            return
        for eid in enabled_events(bp, cut):
            label = bp.events[eid].label
            chains.add(seq + (label,))
            chain_walk(cut_step(bp, cut, eid), seq + (label,))

    chain_walk(initial_cut(bp), ())
    assert sequences == chains


def test_relation_query_fig4():
    bp = unfold_prefix(F4, 2)
    assert relation_query(bp, "t2.1", "t3.1") == "conflict"
    assert relation_query(bp, "t0.1", "t3.1") == "concurrent"
    assert relation_query(bp, "t0.1", "t0.1") == "equal"
    assert relation_query(bp, "p0.1", "t0.1") == "causal_le"
    assert relation_query(bp, "t0.1", "p0.1") == "causal_ge"
    with pytest.raises(InputError):
        relation_query(bp, "t0.1", "ghost")


def test_relation_query_is_a_partition():
    bp = unfold_prefix(F4, 3)
    elements = sorted(bp.conditions) + sorted(bp.events)
    for x, y in itertools.combinations(elements, 2):
        r = relation_query(bp, x, y)
        assert r in {"causal_le", "causal_ge", "conflict", "concurrent"}
        mirror = relation_query(bp, y, x)
        expected = {"causal_le": "causal_ge", "causal_ge": "causal_le",
                    "conflict": "conflict", "concurrent": "concurrent"}[r]
        assert mirror == expected


def test_cut_step_and_order():
    bp = unfold_prefix(F4, 2)
    gamma0 = initial_cut(bp)
    after_t3 = cut_step(bp, gamma0, "t3.1")
    assert bp.mu(after_t3) == frozenset({"p0", "p3"})
    with pytest.raises(PreconditionError):
        cut_step(bp, gamma0, "t4.1" if "t4.1" in bp.events else "t5.1")
    after_t0 = cut_step(bp, gamma0, "t0.1")
    chained = cut_step(bp, after_t0, "t3.1")
    assert bp.mu(chained) == frozenset({"p1", "p3"})

    assert cut_order(bp, gamma0, after_t3) == "lt"
    assert cut_order(bp, after_t3, gamma0) == "gt"
    assert cut_order(bp, after_t0, after_t3) == "incomparable"
    assert cut_order(bp, gamma0, gamma0) == "eq"
    with pytest.raises(InputError):
        cut_order(bp, frozenset({"p0.1"}), gamma0)  # not maximal


def test_every_cut_maps_to_reachable_marking():
    bp = unfold_prefix(F4, 3)
    reach = set(reachability_graph(F4).states)
    seen = set()

    def walk(cut):
        if cut in seen:
            return
        seen.add(cut)
        assert is_cut(bp, cut)
        assert bp.mu(cut) in reach
        for eid in enabled_events(bp, cut):
            nxt = cut_step(bp, cut, eid)
            assert cut_order(bp, cut, nxt) == "lt"
            walk(nxt)

    walk(initial_cut(bp))
    assert len(seen) > 1


def test_is_run():
    assert is_run(unfold_prefix(F4, 0))
    assert not is_run(unfold_prefix(F4, 1))  # t2.1 and t3.1 compete for p2.1
    mat = materialise_play(F4, Play.from_sequence(["t0"]))
    assert is_run(mat.bp)


def test_cuts_order_and_conflict_match_the_pairwise_definitions():
    """``is_cut``, ``cut_order``, ``relation_query`` and ``is_run`` read
    configurations; the pairwise definitions in ``helpers`` must answer
    alike on FIG4 and ``random_net(1..40)`` prefixes of depth 0-3: on the
    cuts ``cut_step`` reaches from the initial cut (at most 40 per prefix),
    random condition sets, random pairs of a reached cut and a cut or set,
    and random element pairs."""
    rng = random.Random(0)
    for net in [F4] + [corpus_net(seed) for seed in range(1, 41)]:
        for depth in range(4):
            bp = unfold_prefix(net, depth)
            consumers = reference_consumers(bp)
            assert is_run(bp) == reference_is_run(bp, consumers)
            cuts = [initial_cut(bp)]
            for cut in cuts:
                for eid in enabled_events(bp, cut):
                    nxt = cut_step(bp, cut, eid)
                    if nxt not in cuts and len(cuts) < 40:
                        cuts.append(nxt)
            conditions = sorted(bp.conditions)
            width = max(map(len, cuts)) + 1
            sets = cuts + [frozenset(rng.sample(conditions,
                                                rng.randint(1, min(width, len(conditions)))))
                           for _ in range(20)]
            for conds in sets:
                assert is_cut(bp, conds) == reference_is_cut(bp, conds, consumers)
            for _ in range(30):
                a, b = rng.choice(cuts), rng.choice(rng.choice([cuts, sets]))
                try:
                    order = cut_order(bp, a, b)
                except InputError:
                    order = None
                assert order == reference_cut_order(bp, a, b, consumers)
            elements = conditions + sorted(bp.events)
            for _ in range(60):
                x, y = rng.choice(elements), rng.choice(elements)
                assert relation_query(bp, x, y) == \
                    reference_relation(bp, x, y, consumers), (x, y)


def test_is_maximal_refinement():
    mat = materialise_play(F4, Play.from_sequence(["t0", "t3"]))
    bp = mat.bp
    cuts = mat.cuts
    assert is_maximal_refinement(bp, cuts)
    # jumping both events at once leaves an insertable cut in between
    assert not is_maximal_refinement(bp, [cuts[0], cuts[2]])
    assert is_maximal_refinement(bp, [cuts[0]])
    with pytest.raises(InputError):
        is_maximal_refinement(bp, [cuts[2], cuts[0]])


def test_maximal_refinement_markings_form_reachability_path():
    mat = materialise_play(F4, Play.from_sequence(["t3", "t0", "t5"]))
    assert is_maximal_refinement(mat.bp, mat.cuts)
    graph = reachability_graph(F4)
    markings = mat.markings()
    edge_set = {(m1, m2) for m1, _, m2 in graph.edges}
    for a, b in zip(markings, markings[1:]):
        assert (a, b) in edge_set


# -- validate_play -------------------------------------------------------------

def test_valid_lasso_play_fig4():
    # t3 first, then a cycle in which every persistently enabled
    # uncontrollable transition eventually consumes its conditions
    play = Play.from_sequence(["t3"], cycle=["t0", "t5", "t3", "t1"])
    assert validate_play(F4, play) == []


def test_play_with_starved_uncontrollable_is_rejected():
    # cycling only the user's component leaves the t0 occurrence addable
    play = Play.from_sequence(["t3"], cycle=["t5", "t3"])
    diags = validate_play(F4, play)
    assert "uncontrollable event t0 addable" in diags


def test_finite_play_must_deadlock():
    play = Play.from_sequence(["t3"])
    diags = validate_play(F4, play)
    assert "uncontrollable event t5 addable" in diags
    assert "uncontrollable event t0 addable" in diags


def test_trailing_event_not_covered_by_cut():
    play = Play(steps=(("t3",),), cycle=(), trailing=("t5",))
    diags = validate_play(F4, play)
    assert any("event t5 not covered by any cut" in d for d in diags)


def test_validate_play_matches_the_two_pass_rule():
    """One pass of the cycle decides the addable events as the prefix and
    two passes with a consumer scan do, on the fixtures and
    ``random_net(1..60)``: for random valid plays, random closed and open
    walks (some open ones with a trailing event), and the same plays with
    runs of prefix steps merged into ``+`` steps."""
    rng = random.Random(0)
    nets = [parse_net(getattr(fixtures, name)) for name in UNFOLDABLE + ("CONTACT",)] + \
        [corpus_net(seed) for seed in range(1, 61)]
    kinds = set()
    for net in nets:
        plays = [random_valid_play(net, rng) for _ in range(4)] + \
            [random_play_walk(net, rng) for _ in range(6)]
        for play in plays + [merge_steps(play, rng) for play in plays]:
            diags = validate_play(net, play)
            assert diags == reference_play_diagnostics(net, play), format_play(play)
            kinds.add((bool(play.cycle), bool(play.trailing), bool(diags)))
    assert {(True, False, False), (True, False, True), (False, False, False),
            (False, False, True), (False, True, True)} <= kinds


def test_deadlocking_finite_play_accepted():
    net = parse_net(fixtures.USERONLY)
    play = Play.from_sequence(["s", "r"])
    assert validate_play(net, play) == []


def test_cycle_must_close():
    with pytest.raises(InputError):
        validate_play(F4, Play.from_sequence([], cycle=["t3"]))


# -- consistency ----------------------------------------------------------------

F4_STRATEGY = NetStrategy("u", {
    frozenset({"p0", "p2"}): {"t3"},
    frozenset({"p1", "p2"}): {"t2"},
})


def test_consistent_play_firing_t3_first():
    # fair play that fires t3 first and follows the strategy forever:
    # the user moves per strategy at every marking where p2 is filled
    play = Play.from_sequence(["t3"], cycle=["t0", "t5", "t2", "t4", "t1", "t3"])
    assert validate_play(F4, play) == []
    ok, diags = consistent_with(F4, play, [F4_STRATEGY])
    assert ok, diags


def test_env_only_cycle_is_finally_postponed():
    play = Play.from_sequence([], cycle=["t0", "t1"])
    assert validate_play(F4, play) == []
    ok, diags = consistent_with(F4, play, [F4_STRATEGY])
    assert not ok
    assert any("finally postponed: u" in d for d in diags)


def test_empty_profile_is_always_consistent():
    play = Play.from_sequence([], cycle=["t0", "t1"])
    ok, diags = consistent_with(F4, play, [])
    assert ok and diags == []


def test_strategy_deviations_are_reported():
    play = Play.from_sequence(["t2"], cycle=["t0", "t1"])
    ok, diags = consistent_with(F4, play, [F4_STRATEGY])
    assert not ok
    assert any("not chosen by u's strategy" in d for d in diags)


def test_user_event_must_be_alone_between_cuts():
    play = Play(steps=(("t0", "t3"),), cycle=("t5", "t3"))
    strategy = NetStrategy("u", {frozenset({"p1", "p2"}): {"t3"},
                                 frozenset({"p0", "p2"}): {"t3"}})
    ok, diags = consistent_with(F4, play, [strategy])
    assert not ok
    assert any("not alone" in d for d in diags)


def test_a_strategy_on_an_unknown_place_is_rejected():
    # a name the net does not have is an input error, not a marking
    # missing that place
    bad = NetStrategy("u", {frozenset({"p0", "p2", "zz"}): {"t3"}})
    with pytest.raises(InputError, match=r"^marking contains unknown places: \['zz'\]$"):
        consistent_with(F4, Play.from_sequence(["t3"]), [bad])


def test_strategy_validation():
    with pytest.raises(InputError):
        consistent_with(F4, Play.from_sequence([]), [NetStrategy("env", {})])
    bad = NetStrategy("u", {frozenset({"p0", "p3"}): {"t3"}})  # t3 disabled there
    with pytest.raises(InputError):
        consistent_with(F4, Play.from_sequence([]), [bad])


# -- files and export -------------------------------------------------------------

def test_play_file_round_trip():
    play = Play.from_sequence(["t3", "t5"], cycle=["t0", "t1"])
    text = format_play(play)
    assert parse_play(text) == play
    multi = Play(steps=(("t0", "t3"),), cycle=("t5", "t1"))
    assert parse_play(format_play(multi)) == multi
    late = Play(steps=(("t3",),), trailing=("t5", "t2"))
    assert format_play(late) == "t3\ntrailing: t5 t2\n"
    assert parse_play(format_play(late)) == late


# -- a process is built in place, then read whole -----------------------------------

def assert_read_whole(bp):
    """The process as read once its last event is added: every produced
    condition in its producer's post-set, and the minimal conditions
    exactly the initial ones."""
    initial = set()
    for c in bp.conditions.values():
        if c.producer is None:
            initial.add(c.cid)
        else:
            assert c.cid in bp.events[c.producer].post
    assert bp.minimal == initial
    assert sorted(bp.conditions[c].label for c in bp.minimal) == sorted(bp.net.initial)


@pytest.mark.parametrize("name", UNFOLDABLE)
def test_prefix_is_read_whole(name):
    net = parse_net(getattr(fixtures, name))
    for depth in range(9):
        assert_read_whole(unfold_prefix(net, depth))


def test_play_run_is_read_whole_in_firing_order():
    mat = materialise_play(parse_net(chain_net(4)), parse_play(undo_play(4)))
    assert_read_whole(mat.bp)
    assert list(mat.bp.events) == [e for fired in mat.step_events for e in fired]
    assert len(mat.bp.events) == 8 + 2          # the prefix and one pass of the cycle
    assert mat.final == mat.markings()[mat.cycle_starts_at] == mat.markings()[-1]


def test_dot_prefix_is_deterministic():
    bp = unfold_prefix(F4, 2)
    a = "".join(dot_prefix(bp, initial_cut(bp)))
    b = "".join(dot_prefix(unfold_prefix(F4, 2), initial_cut(bp)))
    assert a == b
    assert '"t0.1" [shape=box' in a


# -- prefixes recorded from the cartesian-product candidate search ------------------

def _prefix_text(net, depth, max_size=20_000):
    """DOT plus every event's depth, or the bound message."""
    try:
        bp = unfold_prefix(net, depth, max_size=max_size)
    except BoundExceeded as err:
        return f"bound: {err}\n"
    depths = "".join(f"{e} {ev.depth}\n" for e, ev in sorted(bp.events.items()))
    return "".join(dot_prefix(bp)) + depths


#: sha256 over ``_prefix_text(random_net(s), 6, max_size)`` for s in each block
#: of 10 seeds; at 150 elements some prefixes of every block exceed the bound
PREFIX_DIGESTS = {
    (1, 20_000): "32f6410ae3bbffd4c09813f7f7dbb1fb4572d2ab3701169057e0f9d2d54e6c5a",
    (1, 150): "b216b733ce9a04154d2d7cc24c0727d3a484987023e5beb197b968cea4bb84d5",
    (11, 20_000): "7e0f34d82f9b1bd95a2a46afe0d9c39c3fce52d7e5d25517330317c2f50bd4c3",
    (11, 150): "4b740a938e40d0e6554bc7545f85a2e959f589f24efd9c01993d424dc943ede7",
    (21, 20_000): "e3d49b0e10eae76609dc771bb43a995fdebb814e81a82031ec75dc9f470151e5",
    (21, 150): "c4a037ef76c0ade3aa620c26b5ce9cc78e2722dce08492e8d707dfa8967ac758",
    (31, 20_000): "58c87a0ac4194f65e5e0c2c2f919739be908b00afed767b403b43407232ffa6b",
    (31, 150): "c8a7cdf479e77916dcb0e280641d627bdb8a69364b0ce8182a099de1cbb57562",
    (41, 20_000): "23d182c2a63507dedb2b1ff70ffa2423d19965ccb9cc4d243f5580580ef04973",
    (41, 150): "1d8ff407d40cf14ae362071f35fa6ac4533de63554f26b7e987bd2c5d2a68756",
}

#: the same over the fixtures at depths 0..8
FIXTURE_PREFIX_DIGEST = "96b53109cbdfafce16a6eaeb46b56169cf52e658f2529e6085b52b2c8f5b0ef0"


@pytest.mark.parametrize("first,max_size", sorted(PREFIX_DIGESTS))
def test_corpus_prefixes_unchanged(first, max_size):
    h = hashlib.sha256()
    for seed in range(first, first + 10):
        h.update(_prefix_text(corpus_net(seed), 6, max_size).encode("utf-8"))
    assert h.hexdigest() == PREFIX_DIGESTS[first, max_size]


def test_fixture_prefixes_unchanged():
    h = hashlib.sha256()
    for name in UNFOLDABLE:
        net = parse_net(getattr(fixtures, name))
        for depth in range(9):
            h.update(_prefix_text(net, depth).encode("utf-8"))
    assert h.hexdigest() == FIXTURE_PREFIX_DIGEST


#: sha256 over ``format_net`` of ``random_net(s, **WIDE_DRAW)`` for s in 1..40,
#: a block fixed before any of its nets was seen, and over ``_prefix_text(net,
#: 8, max_size)`` of the same nets: their depth-8 prefixes run from 7 to 45,106
#: elements, so both bounds cut some of them
WIDE_DRAW_DIGESTS = {
    "nets": "3a805cc523068404f0bc5c3cecd13815e592d229fc6fef439ad82eea329990ff",
    1500: "004d04dcb3230cbc1613820a7fc84e6b660b3a8f57a262b7862bb3b98710aefb",
    20_000: "600bd74d3f2d4791fcadc6e91c7411a8c3e0d48c4bca4e27eca8b4187fba3159",
}


def test_wide_draw_and_its_prefixes_unchanged():
    nets = [random_net(seed, **WIDE_DRAW) for seed in range(1, 41)]
    digests = {"nets": hashlib.sha256("".join(map(format_net, nets)).encode("utf-8"))}
    for max_size in (1500, 20_000):
        text = "".join(_prefix_text(net, 8, max_size) for net in nets)
        digests[max_size] = hashlib.sha256(text.encode("utf-8"))
    assert {key: h.hexdigest() for key, h in digests.items()} == WIDE_DRAW_DIGESTS


@pytest.mark.parametrize("call, message", [
    (lambda bp: cut_step(bp, initial_cut(bp), "e9"), "unknown event 'e9'"),
    (lambda bp: is_maximal_refinement(bp, []), "empty cut sequence"),
    (lambda bp: materialise_play(F4, Play(steps=(("t0",), ()))), "empty step group in play"),
    (lambda bp: check_strategy(F4, NetStrategy("u", {F4.initial: {"t0"}})),
     "strategy for u chooses foreign transition t0"),
], ids=["cut-step", "refinement", "empty-step", "foreign"])
def test_unfold_input_errors(call, message):
    with pytest.raises(InputError) as err:
        call(unfold_prefix(F4, 2))
    assert str(err.value) == message
