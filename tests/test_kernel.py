"""The enabled/fire kernel on ``NetSystem`` and the layers that read it.

Report digests and the random-corpus digests were recorded from the
implementation that tested enabledness on frozensets, so any change in
a report, a DOT file, a ``--machine`` block or a generated net shows up
here.
"""

import hashlib
import io
import random

import pytest

from helpers import chain_net, corpus_net, reference_reachability
from petrigames import fixtures
from petrigames import nets as nets_module
from petrigames import randnet as randnet_module
from petrigames.cli import build_parser, config_from_args, run
from petrigames.errors import BoundExceeded, InputError
from petrigames.game import build_game
from petrigames.nets import (
    check_contact_free,
    enabled_set,
    fire,
    format_net,
    parse_net,
    reachability_graph,
    require_contact_free,
    validate_net,
)
from petrigames.randnet import _draw, random_net

NETS = {"F4": fixtures.FIG4, "chain2": chain_net(2)}

#: Play and lasso files for ``translate``; the chain(2) play has a step
#: group with a causal pair (``a0`` before ``ra0``) and a concurrent event.
PLAYS = {"F4": "t0+t3\ncycle: t1 t5 t3 t0\n",
         "chain2": "a0+a1+ra0 ra1\ncycle: te01 te10\n"}
LASSOS = {"F4": "t3 t0\ncycle: t1 t5 t3 t0\n",
          "chain2": "a1 a0 ra1 ra0\ncycle: te01 te10 pass@u0 pass@u1\n"}

COMMANDS = {
    "reach": ["reach", "{net}", "--dot", "--machine"],
    "build-game": ["build-game", "{net}", "--machine"],
    "export-game": ["export", "{net}", "--what", "game", "--dot"],
    "export-fairness": ["export", "{net}", "--what", "fairness"],
    "unfold": ["unfold", "{net}", "--depth", "3", "--dot"],
    "translate-play": ["translate", "{net}", "--play", "{play}", "--machine"],
    "translate-lasso": ["translate", "{net}", "--lasso", "{lasso}", "--machine"],
}

CHECKS = {
    "F4": [("enumerate", "<<u>> F ((p0 & p3) | (p1 & p4))"),
           ("enumerate", "<<u>> F (p0 & p3)"),
           ("fixpoint", "<<u>> G <<u>> F p2")],
    "chain2": [("fixpoint", "<<u0,u1>> F x0"),
               ("fixpoint", "<<u0,u1>> F (x0 & x1)"),
               ("fixpoint", "<<u0,u1>> G !y0"),
               ("fixpoint", "<<u0,u1>> G <<u0,u1>> F x0")],
}


def cases():
    for net in NETS:
        for name, argv in COMMANDS.items():
            yield f"{net}:{name}", net, argv
        for i, (engine, formula) in enumerate(CHECKS[net]):
            yield (f"{net}:check{i}", net,
                   ["check", "{net}", "--machine", "--engine", engine,
                    "--formula", formula])
    yield ("F4:build-game-simplified", "F4",
           ["build-game", "{net}", "--single-user-simplification"])


def report(tmp_path, net, argv):
    paths = {}
    for kind, text in (("net", NETS[net]), ("play", PLAYS[net]),
                       ("lasso", LASSOS[net])):
        paths[kind] = tmp_path / f"{net}.{kind}"
        paths[kind].write_text(text, encoding="utf-8")
    args = build_parser().parse_args([a.format(**paths) for a in argv])
    out = io.StringIO()
    code = run(config_from_args(args), stdout=out)
    return code, out.getvalue()


def digest(code, text):
    return hashlib.sha256(f"{code}\n{text}".encode("utf-8")).hexdigest()


GOLDEN = {
    "F4:reach": "c8886935b84a62d11560bbff5ad4f2b0e0031c2ce474a1b0e71f31bf03e13644",
    "F4:build-game": "032107ee59fbbaee727bedb2a9a5174b57446677779730bd8d57f162617a25d6",
    "F4:export-game": "a1de4155cd0a3ebfe8bb0e5ec8dbeb7e4151378fe116529bc2ffb6f92d765c9f",
    "F4:export-fairness": "ee3bd36a0f476c734e73256cc357e59c32175241e7fc0d68348e8ffbdc46bf4b",
    "F4:unfold": "677bc14553f97e059809a6bfb806e233e6e866b63e8efaa29a970fb7d0278daa",
    "F4:check0": "f1c98d2400b7602b5c7a502d232632934a2343714bfd7f1003aeea1d13f2f8c5",
    "F4:check1": "1fbd672d5473fdf4c10c9c5f8689e13ff23a515f6ce7bae4bfd04cdb9ca55ad7",
    "F4:check2": "d4eced672cca6660c005de115ce7059bbb0a36bf75587650a58c8272a9f0a9d8",
    "chain2:reach": "dc1211f331ee46c8346b5b2e782ce2e10044cacac0bf944c4e8a8e9247fbf900",
    "chain2:build-game": "0f70238d432c5962cdb72c826c972b778ec288e1976411707ad0d51896b66586",
    "chain2:export-game": "4ef56a0f26c39fdf5e6e599641c0d285f908a11b23c9e40014e99cd43f6294a4",
    "chain2:export-fairness": "4d9ba6e0ea1087e3a765e6f9b3f63728c619ff80c3eec7cfb56df1429a9f1c9f",
    "chain2:unfold": "0e8ab34c89fbda0d3be3d054c62321ac743edda94382e6e265aa40f551a5b382",
    "chain2:check0": "2718c1367aeacd735b066fa110b3dd24f397773928e0df428b987cc130cac8ba",
    "chain2:check1": "b4af0a6a88115d7ae04c55ec1f4471c6d4cd50343451321a48a5db66f8dc52fe",
    "chain2:check2": "70d3ef5ccfc5a570c568556b9181714398d975ee5425596e0a7ceb5b0ffb0afb",
    "chain2:check3": "438b80b1cf3193781f00b6fc55ddf72aade2d85b041665769bc0feb2528e36de",
    "F4:build-game-simplified": "269640f558117ccc4db70a66e141df105e8cbe0bbc7d0cab2fcd67a1fe05226e",
    "F4:translate-play": "f89fcdbe5e83a1de4f11ffb3575ee702a3e61f9ad79e60e9b60b6df057941dc3",
    "F4:translate-lasso": "ec4aae99c1dd6560ae57f0880efea09f77184ca15feddabeac9756d508577022",
    "chain2:translate-play": "7a339b030d547b8f5c348be2cb689fb29be023937d63a50ab38c43cdb35c4d2d",
    "chain2:translate-lasso": "63bea56da2cd922f7475a8ceadf7d90827d7b4de6330d7475392202338e6cf90",
}


@pytest.mark.parametrize("case,net,argv", list(cases()), ids=[c[0] for c in cases()])
def test_reports_match_golden_digests(tmp_path, case, net, argv):
    assert digest(*report(tmp_path, net, argv)) == GOLDEN[case]


def test_contact_error_text(tmp_path):
    path = tmp_path / "contact.net"
    path.write_text(fixtures.CONTACT, encoding="utf-8")
    out = io.StringIO()
    code = run(config_from_args(build_parser().parse_args(
        ["build-game", str(path), "--machine"])), stdout=out)
    assert code == 2
    assert out.getvalue() == (
        "error: net is not contact-free: transition t has a marked post-set "
        "at reachable marking {p0,p1}\n"
        "---\n"
        "command: build-game\n"
        "net: contact\n"
        "error: net is not contact-free: transition t has a marked post-set "
        "at reachable marking {p0,p1}\n"
        "exit: 2\n")


def test_contact_error_text_for_a_given_graph():
    net = parse_net(fixtures.CONTACT)
    with pytest.raises(InputError) as err:
        build_game(net, graph=reachability_graph(net))
    assert str(err.value) == ("net is not contact-free: transition t has a marked "
                              "post-set at reachable marking {p0,p1}")


# -- the graph against an independent search ----------------------------------------

def assert_graph_matches_reference(net):
    states, edges, contact = reference_reachability(net)
    graph = reachability_graph(net)
    # counting the states and naming the contact witness sort nothing
    assert len(graph) == len(states)
    assert graph.contact == contact
    assert not {"states", "index", "_order"} & vars(graph).keys()
    assert list(graph.states) == states
    assert list(graph.edges) == edges
    assert check_contact_free(net) == (contact is None, contact)
    assert graph.index == {m: i for i, m in enumerate(states)}
    for i, succ in enumerate(graph.out):
        assert [(t, graph.states[j]) for t, j in succ] == \
            [(t, m2) for m1, t, m2 in edges if m1 == states[i]]


@pytest.mark.parametrize("name", ["FIG4", "TOGGLE2", "DEADLOCK", "CONTACT",
                                  "USERONLY", "COOP2"])
def test_graph_matches_reference_on_fixtures(name):
    assert_graph_matches_reference(parse_net(getattr(fixtures, name)))


def test_graph_matches_reference_on_chains():
    for k in (1, 2, 3):
        assert_graph_matches_reference(parse_net(chain_net(k)))


def test_graph_matches_reference_on_corpus():
    for seed in range(1, 51):
        assert_graph_matches_reference(corpus_net(seed))


def test_graph_matches_reference_on_drawn_candidates():
    """Raw random candidates, many of them not contact-free."""
    contact_nets = 0
    for seed in range(300):
        net = _draw(random.Random(seed), 6, 6, 2)
        if net is None or validate_net(net):
            continue
        assert_graph_matches_reference(net)
        contact_nets += reachability_graph(net).contact is not None
    assert contact_nets >= 20


def test_enabled_and_fire_agree_with_frozenset_rule():
    net = parse_net(chain_net(2))
    for m in reachability_graph(net).states:
        expected = frozenset(t for t in net.transitions
                             if net.pre(t) <= m and not net.post(t) & m)
        assert enabled_set(net, m) == expected
        for t in expected:
            assert fire(net, m, t) == (m - net.pre(t)) | net.post(t)


# -- one search per game, same bounds as before -------------------------------------

def test_build_game_searches_once(monkeypatch):
    calls = []
    original = nets_module.reachability_graph

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nets_module, "reachability_graph", counted)
    build_game(parse_net(chain_net(2)))
    assert len(calls) == 1


def test_random_net_validates_each_draw_once(monkeypatch):
    draws, validated = [], []
    draw, validate = randnet_module._draw, nets_module.validate_net

    def counted_draw(*args):
        net = draw(*args)
        draws.append(net)
        return net

    def counted_validate(net):
        validated.append(net)
        return validate(net)

    monkeypatch.setattr(randnet_module, "_draw", counted_draw)
    monkeypatch.setattr(nets_module, "validate_net", counted_validate)
    for seed in (1, 2, 3):
        random_net(seed)
    drawn = [net for net in draws if net is not None]
    assert len(drawn) > 100
    assert validated == drawn


def test_bound_exceeded_at_the_same_bound():
    net = parse_net(chain_net(2))   # 18 reachable states
    assert len(reachability_graph(net, max_states=18)) == 18
    for fn in (reachability_graph, check_contact_free, require_contact_free,
               lambda n, max_states: build_game(n, max_states=max_states)):
        with pytest.raises(BoundExceeded) as err:
            fn(net, max_states=17)
        assert str(err.value) == "reachability graph exceeds 17 states"
        assert err.value.bound == 17


def test_bound_is_checked_before_contact():
    net = parse_net(fixtures.CONTACT + "place p2 @env\ntrans s @env pre p1 post p2\n")
    assert len(reachability_graph(net)) == 2
    with pytest.raises(BoundExceeded):
        build_game(net, max_states=1)
    with pytest.raises(InputError, match="not contact-free"):
        build_game(net, max_states=2)


# -- generated nets --------------------------------------------------------------

#: sha256 over ``format_net(random_net(s))`` for s in each block of 50 seeds
CORPUS_DIGESTS = {
    1: "7227be93f66c7f8b15bb520fe19e6749a59078209754ae1656a3593d1415e00b",
    51: "bd8777270d64fdbb2fa50a42e9e2560f62e02179408fd17a2d02f533b2d77368",
    101: "7c694d00d157965e216cd25451a00b8f15a996497f6e5996cb394c2d89152a25",
    151: "3c5531dc3a0175934d8d59e525f19a7209b7c5f223944f1d268b5cea1a5320be",
}


@pytest.mark.parametrize("first", [1, 51, 101, 151])
def test_random_nets_unchanged(first):
    h = hashlib.sha256()
    for seed in range(first, first + 50):
        h.update(format_net(random_net(seed)).encode("utf-8"))
    assert h.hexdigest() == CORPUS_DIGESTS[first]
