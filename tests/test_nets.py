import pytest

from petrigames import fixtures
from petrigames.errors import BoundExceeded, InputError, PreconditionError
from petrigames.game import LassoComputation, build_game, format_lasso, parse_lasso
from petrigames.nets import (
    NetSystem,
    check_contact_free,
    enabled_set,
    fire,
    format_marking,
    format_net,
    marking_key,
    parse_marking,
    parse_net,
    reachability_graph,
    structural_relation,
    validate_net,
)
from petrigames.solver import format_profile, iter_profiles, parse_profile
from petrigames.unfold import Play, format_play, parse_play

F4 = parse_net(fixtures.FIG4)


def brute_force_reachable(net):
    """Independent oracle: recursive DFS over the token game."""
    seen = set()

    def walk(m):
        if m in seen:
            return
        seen.add(m)
        for t in net.transitions:
            if net.pre(t) <= m and not (net.post(t) & m):
                walk(net.post(t) | (m - net.pre(t)))

    walk(net.initial)
    return seen


def test_parse_fig4_shape():
    assert F4.name == "F4"
    assert F4.places == frozenset({"p0", "p1", "p2", "p3", "p4"})
    assert F4.transitions == frozenset({"t0", "t1", "t2", "t3", "t4", "t5"})
    assert F4.initial == frozenset({"p0", "p2"})
    assert F4.locations == ("env", "u")
    assert F4.users == ("u",)
    assert F4.location_of("t3") == "u"
    assert not F4.is_controllable("t0")
    assert F4.is_controllable("t2")
    assert F4.pre("t3") == frozenset({"p2"})
    assert F4.post("t3") == frozenset({"p3"})


def test_validate_fig4_clean():
    assert validate_net(F4) == []


def test_validate_empty_preset():
    net = NetSystem("bad", ["p"], ["t"], [("t", "p")], ["p"], ["env"],
                    {"p": "env", "t": "env"})
    diags = validate_net(net)
    assert any("empty pre-set of t" in d for d in diags)


def test_validate_distribution_violation():
    # p@env feeding t@u breaks local control of choices.
    net = NetSystem("bad", ["p", "q"], ["t"], [("p", "t"), ("t", "q")], ["p"],
                    ["env", "u"], {"p": "env", "q": "env", "t": "u"})
    diags = validate_net(net)
    assert any("distribution violated at (p,t)" in d for d in diags)


def test_validate_reports_unknown_location_and_overlap():
    net = NetSystem("bad", ["x"], ["x2"], [("x", "x2"), ("x2", "x")], ["x"],
                    ["env"], {"x": "env", "x2": "mars"})
    diags = validate_net(net)
    assert any("unknown location" in d for d in diags)

    twin = NetSystem("bad", ["x"], ["x"], [("x", "x")], ["x"], ["env"], {"x": "env"})
    assert any("both a place and a transition" in d for d in validate_net(twin))


@pytest.mark.parametrize("marking,expected", [
    (frozenset({"p0", "p2"}), {"t0", "t2", "t3"}),
    (frozenset({"p1", "p3"}), {"t1", "t5"}),
    (frozenset(), set()),
])
def test_enabled_set_fig4(marking, expected):
    assert enabled_set(F4, marking) == frozenset(expected)


def test_enabled_set_rejects_unknown_place():
    with pytest.raises(InputError):
        enabled_set(F4, frozenset({"p0", "nope"}))


def test_fire_fig4():
    assert fire(F4, frozenset({"p0", "p2"}), "t3") == frozenset({"p0", "p3"})
    assert fire(F4, frozenset({"p0", "p2"}), "t0") == frozenset({"p1", "p2"})
    with pytest.raises(PreconditionError) as err:
        fire(F4, frozenset({"p0", "p3"}), "t2")
    assert "t2" in str(err.value) and "p0" in str(err.value)
    with pytest.raises(InputError) as err:
        fire(F4, F4.initial, "t9")
    assert str(err.value) == "unknown transition 't9'"


def test_reachability_fig4_matches_oracle():
    graph = reachability_graph(F4)
    oracle = brute_force_reachable(F4)
    assert set(graph.states) == oracle
    assert sorted(marking_key(m) for m in graph.states) == [
        ("p0", "p2"), ("p0", "p3"), ("p0", "p4"),
        ("p1", "p2"), ("p1", "p3"), ("p1", "p4"),
    ]
    assert len(graph.edges) == 14
    # graph edges agree with the firing rule and with enabled_set
    for m, t, m2 in graph.edges:
        assert t in enabled_set(F4, m)
        assert fire(F4, m, t) == m2
    for m in graph.states:
        out_edges = {t for m1, t, _ in graph.edges if m1 == m}
        assert out_edges == enabled_set(F4, m)


def test_reachability_no_transitions():
    net = parse_net(fixtures.DEADLOCK)
    graph = reachability_graph(net)
    assert len(graph.states) == 1
    assert graph.edges == ()


def test_reachability_two_toggles():
    net = parse_net(fixtures.TOGGLE2)
    graph = reachability_graph(net)
    assert len(graph.states) == 4
    assert len(graph.edges) == 8
    assert set(graph.states) == brute_force_reachable(net)


def test_reachability_state_bound():
    with pytest.raises(BoundExceeded):
        reachability_graph(F4, max_states=3)


def test_contact_free_fig4():
    ok, witness = check_contact_free(F4)
    assert ok and witness is None


def test_contact_free_negative():
    net = parse_net(fixtures.CONTACT)
    ok, witness = check_contact_free(net)
    assert not ok
    assert witness == (frozenset({"p0", "p1"}), "t")


def test_contact_free_vacuous():
    net = parse_net(fixtures.DEADLOCK)
    assert check_contact_free(net) == (True, None)


def test_structural_relation_fig4():
    assert structural_relation(F4, "t2", "t3").kind == "conflict"
    rel = structural_relation(F4, "t0", "t3", frozenset({"p0", "p2"}))
    assert rel.kind == "independent" and rel.concurrent_at
    assert structural_relation(F4, "t0", "t1").kind == "neither"
    with pytest.raises(InputError):
        structural_relation(F4, "t0", "t0")


def test_structural_relation_symmetry_and_exclusivity():
    ts = sorted(F4.transitions)
    for i, t1 in enumerate(ts):
        for t2 in ts[i + 1:]:
            one = structural_relation(F4, t1, t2).kind
            other = structural_relation(F4, t2, t1).kind
            assert one == other
            assert one in {"conflict", "independent", "neither"}


def test_fire_preserves_size_law():
    graph = reachability_graph(F4)
    for m in graph.states:
        for t in enabled_set(F4, m):
            m2 = fire(F4, m, t)
            assert len(m2) == len(m) - len(F4.pre(t)) + len(F4.post(t))
            assert m2 <= F4.places


def test_format_parse_round_trip():
    for text in (fixtures.FIG4, fixtures.TOGGLE2, fixtures.DEADLOCK,
                 fixtures.CONTACT, fixtures.USERONLY, fixtures.COOP2):
        net = parse_net(text)
        assert parse_net(format_net(net)) == net
        # canonical print is a fixpoint
        assert format_net(parse_net(format_net(net))) == format_net(net)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError) as err:
        parse_net("net x\nlocations env\nplace p\n")
    assert "line 3" in str(err.value)
    with pytest.raises(InputError):
        parse_net("locations env\n")  # missing net name


NET_HEAD = "net x\nlocations env u\nplace p @env init\nplace q @env\n"


@pytest.mark.parametrize("text,line,what", [
    (NET_HEAD + "net y\n", 5, "duplicate 'net' line (first on line 1)"),
    (NET_HEAD + "locations env\n", 5, "duplicate 'locations' line (first on line 2)"),
    (NET_HEAD + "place p @u\n", 5, "duplicate place 'p' (first on line 3)"),
    (NET_HEAD + "trans t @env pre p post q\n# again\ntrans t @env pre q post p\n",
     7, "duplicate transition 't' (first on line 5)"),
], ids=["net", "locations", "place", "transition"])
def test_parse_rejects_duplicate_declarations(text, line, what):
    with pytest.raises(InputError) as err:
        parse_net(text)
    assert str(err.value) == f"net format error on line {line}: {what}"


def test_place_and_transition_may_share_an_id_until_validation():
    net = parse_net(NET_HEAD + "trans p @env pre p post q\n")
    assert any("both a place and a transition" in d for d in validate_net(net))


def _one_step_net(place, transition, name="x"):
    """``a -> transition -> place`` at user u: a well-formed net whatever
    the two ids and the net's name."""
    return NetSystem(name, ["a", place], [transition],
                     [("a", transition), (transition, place)], ["a"], ["env", "u"],
                     {"a": "u", place: "u", transition: "u"})


@pytest.mark.parametrize("place,transition,line,what", [
    # formatted as 'trans t @u pre a post post', which has an empty post list
    ("post", "t", 4, "'post' is reserved and cannot name a place"),
    # formatted as 'trans pre @u pre a post b', once read as arcs (pre,pre), (@u,pre)
    ("b", "pre", 5, "'pre' is reserved and cannot name a transition"),
], ids=["place-post", "transition-pre"])
def test_reserved_ids_fail_validation_and_parsing(place, transition, line, what):
    net = _one_step_net(place, transition)
    reserved = place if place == "post" else transition
    assert validate_net(net) == [f"identifier {reserved!r} is reserved in the net text format"]
    with pytest.raises(InputError) as err:
        parse_net(format_net(net))
    assert str(err.value) == f"net format error on line {line}: {what}"
    renamed = _one_step_net("b", "t")
    assert validate_net(renamed) == []
    assert parse_net(format_net(renamed)) == renamed


def _round_trips(net, fmt):
    """Whether the text format ``fmt`` reads back what it writes for
    ``net``, a one-step net (:func:`_one_step_net`)."""
    if fmt == "net":
        return parse_net(format_net(net)) == net
    if fmt == "marking":
        return parse_marking(format_marking(net.places)) == net.places
    if fmt == "play":
        play = Play.from_sequence(sorted(net.transitions))
        return parse_play(format_play(play)) == play
    g = build_game(net)
    if fmt == "strategy":
        return all(parse_profile(g, format_profile(g, p)) == p for p in iter_profiles(g))
    # a lasso: the user fires its transition, then idles
    (t,) = net.transitions
    q0 = g.initial_state()
    fired = (q0, g.vector_for(q0, 0, g.moves[0][q0].index(t)))
    q1 = g.tau(*fired)
    lasso = LassoComputation((fired,), ((q1, g.vector_for(q1, 0, g.idle_move(0, q1))),))
    return parse_lasso(g, format_lasso(g, lasso)) == lasso


@pytest.mark.parametrize("fmt,place,transition,problem,line,error", [
    # '#' starts a comment, so the line reads 'place a'
    ("net", "a#b", "t", "contains '#', which is reserved", 4,
     "expected: place <id> @<location> [init]"),
    # whitespace splits the id into two tokens
    ("net", "a b", "t", "contains ' ', which is reserved", 4,
     "expected: place <id> @<location> [init]"),
    # an empty id leaves the line without one: 'place  @u'
    ("net", "", "t", "is empty", 3, "expected: place <id> @<location> [init]"),
    # '{a,x,y}' reads back as three places
    ("marking", "x,y", "t", "contains ',', which is reserved", 4,
     "'x,y' contains ',', which is reserved and cannot name a place"),
    # 't+u' reads back as one step of two events
    ("play", "b", "t+u", "contains '+', which is reserved", 5,
     "'t+u' contains '+', which is reserved and cannot name a transition"),
    # 'pass@u' reads back as the idle move of u
    ("lasso", "b", "pass@u", "contains '@', which is reserved", 5,
     "'pass@u' contains '@', which is reserved and cannot name a transition"),
    # '-> pass' reads back as the idle move
    ("strategy", "b", "pass", "is reserved", 5,
     "'pass' is reserved and cannot name a transition"),
], ids=["net-comment", "net-space", "net-empty", "marking", "play", "lasso", "strategy"])
def test_valid_nets_round_trip_through_every_text_format(fmt, place, transition, problem,
                                                         line, error):
    # each id passed validation although the format could not carry it
    net = _one_step_net(place, transition)
    bad = place if place != "b" else transition
    assert validate_net(net) == [f"identifier {bad!r} {problem} in the net text format"]
    with pytest.raises(InputError) as err:
        parse_net(format_net(net))
    assert str(err.value) == f"net format error on line {line}: {error}"
    renamed = _one_step_net("b", "t")
    assert validate_net(renamed) == []
    assert _round_trips(renamed, fmt)


def test_strategy_reads_back_a_marking_whose_place_holds_an_arrow():
    # each line splits at the ' -> ' that format_profile writes, not at the
    # '->' inside the place name
    net = _one_step_net("a->b", "t")
    assert validate_net(net) == []
    assert _round_trips(net, "strategy")
    # without the spaces the whole rest of the line is the marking
    with pytest.raises(InputError, match=r"unknown state \{\{a\}->t\} on line 1"):
        parse_profile(build_game(net), "strategy u: {a}->t\n")


@pytest.mark.parametrize("name,problem,reads_back_as", [
    # '#' starts a comment, so 'net a#b' reads back as a net named 'a'
    ("a#b", "contains '#', which is reserved", "a"),
    # whitespace splits the name into two tokens
    ("a b", "contains ' ', which is reserved", None),
    # 'net ' has no name token
    ("", "is empty", None),
], ids=["comment", "space", "empty"])
def test_net_names_the_net_line_cannot_carry(name, problem, reads_back_as):
    net = _one_step_net("b", "t", name)
    assert validate_net(net) == [f"net name {name!r} {problem} in the net text format"]
    if reads_back_as is None:
        with pytest.raises(InputError) as err:
            parse_net(format_net(net))
        assert str(err.value) == "net format error on line 1: expected: net <name>"
    else:
        assert parse_net(format_net(net)) == _one_step_net("b", "t", reads_back_as)
    renamed = _one_step_net("b", "t", "a_b")
    assert validate_net(renamed) == []
    assert parse_net(format_net(renamed)) == renamed


def test_an_empty_location_fails_validation():
    # 'locations env ' reads back without the empty user
    net = _one_user_net("")
    assert validate_net(net) == ["location '' is empty in the text formats"]
    assert parse_net(format_net(net)).locations == ("env",)


def _one_user_net(user):
    """``a -> t -> b`` at one user named ``user``."""
    return NetSystem("x", ["a", "b"], ["t"], [("a", "t"), ("t", "b")], ["a"],
                     ["env", user], {"a": user, "b": user, "t": user})


@pytest.mark.parametrize("user,line,error", [
    # 'strategy u:v: {a} -> t' reads as user 'u'
    ("u:v", 2, "'u:v' contains ':', which is reserved and cannot name a location"),
    # 'locations env u v' reads as two users, and 'place a @u v init' fails
    ("u v", 3, "unexpected tokens ['v', 'init'] after place declaration"),
    # '#' starts a comment, so every element reads as located at 'u'
    ("u#v", 5, "transition needs both a 'pre' and a 'post' list"),
], ids=["colon", "space", "comment"])
def test_location_names_the_text_formats_cannot_carry(user, line, error):
    net = _one_user_net(user)
    bad = next(c for c in user if not c.isalpha())
    assert validate_net(net) == \
        [f"location {user!r} contains {bad!r}, which is reserved in the text formats"]
    with pytest.raises(InputError) as err:
        parse_net(format_net(net))
    assert str(err.value) == f"net format error on line {line}: {error}"
    renamed = _one_user_net("u")
    assert validate_net(renamed) == []
    assert parse_net(format_net(renamed)) == renamed


def test_parse_reads_pre_only_after_the_location():
    with pytest.raises(InputError) as err:
        parse_net(NET_HEAD + "trans t @env q pre p post q\n")
    assert str(err.value) == \
        "net format error on line 5: 'pre' must follow the transition's location"
