import random

import pytest

from petrigames import fixtures
from petrigames.errors import InputError
from petrigames.formulas import (
    And,
    Coalition,
    Not,
    Or,
    PathFormula,
    Prop,
    TrueConst,
    canonical_lasso,
    check_fragment,
    format_formula,
    holds_in,
    parse_formula,
    path_satisfies,
    state_props,
)
from petrigames.nets import parse_net
from petrigames.unfold import Play, materialise_play

F4 = parse_net(fixtures.FIG4)

S = frozenset


def test_parse_nested_coalitions():
    f = parse_formula("<<u1,u2>> G <<u1,u2>> F p6")
    assert isinstance(f, Coalition)
    assert f.users == ("u1", "u2")
    assert f.op == "G"
    inner = f.args[0]
    assert isinstance(inner, Coalition)
    assert inner.op == "U"
    assert inner.args[0] == TrueConst()
    assert inner.args[1] == Prop("p6")


def test_parse_eventually_desugars_to_until():
    f = parse_formula("<<u>> F ((p0 & p3) | (p1 & p4))")
    assert isinstance(f, Coalition) and f.op == "U"
    assert f.args[0] == TrueConst()
    assert f.args[1] == Or(And(Prop("p0"), Prop("p3")), And(Prop("p1"), Prop("p4")))


def test_parse_until_and_boolean_precedence():
    f = parse_formula("<<u>> U(p0, p1 & !p2 | p3)")
    assert f == Coalition(("u",), "U",
                          (Prop("p0"),
                           Or(And(Prop("p1"), Not(Prop("p2"))), Prop("p3"))))


def test_parse_syntax_error_has_column():
    with pytest.raises(InputError) as err:
        parse_formula("p0 |")
    assert "column" in str(err.value)
    with pytest.raises(InputError):
        parse_formula("<<u>> Z p0")
    with pytest.raises(InputError):
        parse_formula("p0 p1")


def test_print_parse_round_trip():
    texts = [
        "<<u>> F ((p0 & p3) | (p1 & p4))",
        "<<u>> F (p0 & p3)",
        "<<u1,u2>> G <<u1,u2>> F p6",
        "!(p0 | p1) & p2",
        "<<u>> U(p0 | p1, !p2)",
        "<<u>> G (p0 | p1 & p2)",
        "true | !true",
    ]
    for text in texts:
        ast = parse_formula(text)
        assert parse_formula(format_formula(ast)) == ast


def test_print_parse_round_trip_random_asts():
    rng = random.Random(7)
    leaves = [Prop("p0"), Prop("p1"), Prop("p2"), TrueConst()]

    def gen(depth):
        if depth == 0:
            return rng.choice(leaves)
        kind = rng.randrange(5)
        if kind == 0:
            return Not(gen(depth - 1))
        if kind == 1:
            return Or(gen(depth - 1), gen(depth - 1))
        if kind == 2:
            return And(gen(depth - 1), gen(depth - 1))
        if kind == 3:
            return Coalition(("u",), "G", (gen(depth - 1),))
        return Coalition(("u",), "U", (gen(depth - 1), gen(depth - 1)))

    for _ in range(200):
        ast = gen(3)
        assert parse_formula(format_formula(ast)) == ast


def test_check_fragment():
    two_users = parse_net(fixtures.COOP2)
    assert check_fragment(parse_formula("<<u1,u2>> G ga"), two_users) == []
    assert check_fragment(parse_formula("<<u1>> G ga"), two_users) == \
        ["sub-coalition {u1}"]
    assert check_fragment(parse_formula("<<u>> X p0"), F4) == ["X operator"]
    assert "unknown proposition p9" in check_fragment(
        parse_formula("<<u>> G p9"), F4)


def test_state_props():
    assert state_props(S({"p0", "p3"})) == S({"p0", "p3"})
    assert state_props(S()) == S()
    mat = materialise_play(F4, Play.from_sequence(["t3"]))
    cut = mat.cuts[-1]
    assert state_props(cut, mat.bp) == S({"p0", "p3"})


def test_path_satisfies_globally():
    pf = PathFormula("G", parse_formula("p0 | p3"))
    assert path_satisfies([S({"p0", "p3"})], [], pf)
    assert not path_satisfies([S({"p0", "p3"})], [S({"p1", "p2"})], pf)


def test_path_satisfies_until():
    pf = PathFormula("U", TrueConst(), Prop("p3"))
    prefix = [S({"p0", "p2"}), S({"p0", "p3"})]
    assert path_satisfies(prefix, [S({"p0", "p3"})], pf)
    assert not path_satisfies([S({"p0", "p2"})], [S({"p1", "p2"})], pf)
    guarded = PathFormula("U", Prop("p2"), Prop("p3"))
    assert path_satisfies([S({"p2"}), S({"p2", "p3"})], [], guarded)
    assert not path_satisfies([S({"p2"}), S({"p1"}), S({"p3"})], [], guarded)


def test_path_satisfies_rejects_empty():
    with pytest.raises(InputError):
        path_satisfies([], [], PathFormula("G", TrueConst()))


def test_eventually_equals_until_true():
    rng = random.Random(11)
    labels = [S(s) for s in ({"p0"}, {"p1"}, {"p0", "p3"}, {"p1", "p4"}, set())]
    for _ in range(300):
        prefix = [rng.choice(labels) for _ in range(rng.randrange(0, 4))]
        cycle = [rng.choice(labels) for _ in range(rng.randrange(1, 4))]
        target = rng.choice([Prop("p0"), Prop("p3"), And(Prop("p1"), Prop("p4"))])
        as_until = PathFormula("U", TrueConst(), target)
        # an independent direct definition of F on a lasso
        direct = any(holds_in(target, props) for props in prefix + cycle)
        assert path_satisfies(prefix, cycle, as_until) == direct


def test_canonical_lasso_basics():
    assert canonical_lasso(["q0", "q0", "q1", "q1", "q1"], ["q2"]) == \
        (("q0", "q1", "q2"), ())
    assert canonical_lasso(["q0"], ["q1", "q2"]) == (("q0",), ("q1", "q2"))
    assert canonical_lasso(["q0"], ["q0"]) == (("q0",), ())
    assert canonical_lasso([], ["a", "b", "a"]) == ((), ("a", "b"))
    # phase alignment: same infinite word from different splits
    assert canonical_lasso(["x", "b"], ["a", "b"]) == canonical_lasso(["x"], ["b", "a"])


def test_canonical_lasso_stutter_insertion_invariance():
    rng = random.Random(23)
    symbols = ["a", "b", "c"]
    for _ in range(500):
        prefix = [rng.choice(symbols) for _ in range(rng.randrange(0, 5))]
        cycle = [rng.choice(symbols) for _ in range(rng.randrange(1, 5))]
        base = canonical_lasso(prefix, cycle)

        def stuttered(seq):
            out = []
            for sym in seq:
                out.extend([sym] * rng.randrange(1, 4))
            return out

        twin = canonical_lasso(stuttered(prefix), stuttered(cycle))
        assert twin == base


def test_stutter_invariance_of_path_satisfies():
    # stutter-equivalent lassos must agree on every X-free formula
    rng = random.Random(5)
    pool = [
        PathFormula("G", parse_formula("p0 | p1")),
        PathFormula("G", Not(Prop("p4"))),
        PathFormula("U", TrueConst(), And(Prop("p0"), Prop("p3"))),
        PathFormula("U", Prop("p2"), Prop("p4")),
        PathFormula("U", TrueConst(), Prop("p1")),
    ]
    labels = [S({"p0", "p2"}), S({"p1", "p2"}), S({"p0", "p3"}), S({"p1", "p4"})]
    for _ in range(300):
        prefix = [rng.choice(labels) for _ in range(rng.randrange(0, 4))]
        cycle = [rng.choice(labels) for _ in range(rng.randrange(1, 4))]
        stuttered_prefix = []
        for sym in prefix:
            stuttered_prefix.extend([sym] * rng.randrange(1, 3))
        stuttered_cycle = []
        for sym in cycle:
            stuttered_cycle.extend([sym] * rng.randrange(1, 3))
        assert canonical_lasso(prefix, cycle) == \
            canonical_lasso(stuttered_prefix, stuttered_cycle)
        for pf in pool:
            assert path_satisfies(prefix, cycle, pf) == \
                path_satisfies(stuttered_prefix, stuttered_cycle, pf)
