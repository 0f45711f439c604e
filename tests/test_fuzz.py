"""Fuzzing of the text parsers and the CLI: every input either parses or
is rejected with an ``InputError``, and every command ends in exit 0-4.

Examples are derived deterministically (``derandomize=True``) and kept few,
so the file stays a few seconds of the tier-1 run.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from petrigames import fixtures
from petrigames.cli import build_parser, config_from_args, run
from petrigames.errors import InputError
from petrigames.formulas import parse_formula
from petrigames.game import build_game, parse_lasso
from petrigames.nets import parse_net
from petrigames.unfold import parse_play

F4 = parse_net(fixtures.FIG4)
G4 = build_game(F4)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def joined(tokens, separators=(" ", " ", "", "\n")):
    """Token streams: mostly grammar, with some raw text mixed in."""
    token = st.one_of(st.sampled_from(tokens), st.text(max_size=4))
    pair = st.tuples(token, st.sampled_from(separators))
    return st.lists(pair, max_size=16).map(
        lambda pairs: "".join(tok + sep for tok, sep in pairs))


FORMULA_ATOMS = st.sampled_from(["p0", "p1", "p2", "p3", "p4", "true", "q"])


def formula_text():
    """Formulas over F4 built by the grammar (coalitions of users and
    non-users, X outside the fragment), or token soup."""
    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from(["&", "|"]), children).map(" ".join),
            children.map(lambda f: "!" + f),
            children.map(lambda f: f"({f})"),
            st.tuples(st.sampled_from(["<<u>>", "<<env>>", "<<u,u>>"]),
                      st.sampled_from(["F", "G", "X"]), children).map(" ".join),
            st.tuples(children, children).map(lambda ab: f"<<u>> U({ab[0]}, {ab[1]})"))

    return st.one_of(st.recursive(FORMULA_ATOMS, extend, max_leaves=8),
                     joined(["p0", "p3", "&", "|", "!", "(", ")", "<<", ">>",
                             "u", ",", "F", "G", "U", "true"]))


NET_LINES = [
    "place p0 @u init", "place p1 @env", "place p2 @v init", "place p3 @v",
    "trans t @u pre p0 post p1", "trans r @env pre p1 post p0",
    "trans s @v pre p2 post p3", "trans b @v pre p3 post p2",
    "trans y @env pre p1 p3 post p0 p2", "place p1 @u", "trans t @u pre p0",
    "trans x @env pre post", "place", "trans", "# comment", "net n",
    "locations env u v",
]


def net_text():
    """Net files: a header and distinct grammar lines, or token soup."""
    body = st.lists(st.sampled_from(NET_LINES), unique=True, max_size=10)
    return st.one_of(body.map(lambda lines: "\n".join(["net n", "locations env u v"]
                                                       + lines)),
                     joined(NET_LINES, separators=("\n", "\n", " ")))


PLAY_TOKENS = ["t0", "t1", "t2", "t3", "t4", "t5", "t0+t3", "t3+t0", "cycle:",
               "trailing:", "pass@u", "pass@env", "pass@", "pass@sched", "x"]


def walk_text():
    """Lasso files along a walk in F4's game: the i-th number picks a move
    at the state reached; the cycle starts at a drawn position where the
    walk's last state was visited, if there is one."""
    def render(picks, split):
        qi, tokens, states = G4.initial_state(), [], []
        for pick in picks:
            options = [(a, j) for a in range(G4.user_count + 1)
                       for j in range(G4.d(a, qi))]
            a, j = options[pick % len(options)]
            label = G4.move_label(a, qi, j)
            tokens.append(label if label is not None
                          else "pass@" + G4.player_names[a])
            states.append(qi)
            qi = G4.apply_move(qi, a, j)
        closing = [i for i, q in enumerate(states) if q == qi]
        split = closing[split % len(closing)] if closing else split
        return " ".join(tokens[:split]) + "\ncycle: " + " ".join(tokens[split:])

    return st.builds(render, st.lists(st.integers(0, 20), max_size=10),
                     st.integers(0, 10))


def lasso_text():
    return st.one_of(walk_text(), joined(PLAY_TOKENS))


def invoke(argv):
    code = run(config_from_args(build_parser().parse_args(argv)),
               stdout=io.StringIO())
    assert 0 <= code <= 4
    return code


def parses_or_rejects(parse, text):
    try:
        parse(text)
    except InputError:
        pass


@FUZZ
@given(net_text())
def test_parse_net(text):
    parses_or_rejects(parse_net, text)


@FUZZ
@given(formula_text())
def test_parse_formula(text):
    parses_or_rejects(parse_formula, text)


@FUZZ
@given(lasso_text())
def test_parse_play_and_lasso(text):
    parses_or_rejects(parse_play, text)
    parses_or_rejects(lambda t: parse_lasso(G4, t), text)


@settings(FUZZ, max_examples=100)
@given(formula_text())
def test_check_formula_exits_0_to_4(tmp_path_factory, text):
    net = tmp_path_factory.getbasetemp() / "F4.net"
    net.write_text(fixtures.FIG4, encoding="utf-8")
    invoke(["check", str(net), "--formula", text])


@settings(FUZZ, max_examples=100)
@given(lasso_text())
def test_translate_lasso_exits_0_to_4(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    net, lasso = base / "F4.net", base / "fuzz.lasso"
    net.write_text(fixtures.FIG4, encoding="utf-8")
    lasso.write_text(text, encoding="utf-8")
    invoke(["translate", str(net), "--lasso", str(lasso)])
