"""The chain(k) scaling family, with a seeded renaming.

chain(k) has an environment toggle ``e0 <-> e1`` and, for each i < k, a
user ``u_i`` whose place ``c_i`` chooses ``a_i: c_i -> x_i`` or
``b_i: c_i -> y_i``; the environment undoes the choice with ``ra_i`` /
``rb_i``.  chain(1) is the README's F4 net up to renaming.

The seed only renames places and transitions (users keep their names),
so every expected verdict and count stays fixed.  The new names sort
like the logical ones: the canonical order the engines search in, and
with it the work, is the same for every seed.  (A renaming that also
reordered names moved chain-solve's work by 5-9% from seed to seed.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Chain:
    k: int
    text: str               # the net file
    names: dict             # logical name (e0, c1, ra2, ...) -> file name

    def place(self, logical: str) -> str:
        return self.names[logical]

    def users(self) -> str:
        return ",".join(f"u{i}" for i in range(self.k))


def logical_places(k: int) -> list:
    return ["e0", "e1"] + [f"{p}{i}" for i in range(k) for p in ("c", "x", "y")]


def logical_transitions(k: int) -> list:
    return ["te01", "te10"] + [f"{t}{i}" for i in range(k)
                               for t in ("a", "b", "ra", "rb")]


def chain(k: int, seed: int) -> Chain:
    """chain(k) with order-preserving place and transition names drawn
    from ``seed``."""
    rng = random.Random(f"chain:{k}:{seed}")
    names = {}
    for prefix, logical in (("p", logical_places(k)), ("t", logical_transitions(k))):
        ids = sorted(rng.sample(range(10_000), len(logical)))
        names.update({name: f"{prefix}{n:04d}" for name, n in zip(sorted(logical), ids)})

    lines = [f"net chain{k}", "locations env " + " ".join(f"u{i}" for i in range(k)),
             f"place {names['e0']} @env init", f"place {names['e1']} @env"]
    flows = [("te01", "e0", "e1", "env"), ("te10", "e1", "e0", "env")]
    for i in range(k):
        lines.append(f"place {names[f'c{i}']} @u{i} init")
        lines.append(f"place {names[f'x{i}']} @env")
        lines.append(f"place {names[f'y{i}']} @env")
        flows += [(f"a{i}", f"c{i}", f"x{i}", f"u{i}"),
                  (f"b{i}", f"c{i}", f"y{i}", f"u{i}"),
                  (f"ra{i}", f"x{i}", f"c{i}", "env"),
                  (f"rb{i}", f"y{i}", f"c{i}", "env")]
    for t, pre, post, loc in flows:
        lines.append(f"trans {names[t]} @{loc} pre {names[pre]} post {names[post]}")
    return Chain(k, "\n".join(lines) + "\n", names)


def states(k: int) -> int:
    return 2 * 3 ** k


def edges(k: int) -> int:
    return 2 * 3 ** k + 8 * k * 3 ** (k - 1)


def fairness_constraints(k: int) -> int:
    """k+1 scheduler constraints plus one per uncontrollable transition;
    the toggle is always enabled, so there are no user progress ones."""
    return (k + 1) + (2 + 2 * k)


def game_moves(k: int) -> int:
    """Scheduler-selectable moves of chain(k)'s game, summed over states.

    A user at ``c_i`` has its two choices and idling, elsewhere only
    idling; the environment has the toggle and one undo per user away
    from ``c_i``.
    """
    total = 0
    for away in range(k + 1):
        at_states = 2 * math.comb(k, away) * 2 ** away
        user_moves = 3 * (k - away) + away
        env_moves = 1 + away
        total += at_states * (user_moves + env_moves)
    return total


def prefix3(k: int) -> tuple:
    """(conditions, events) of the depth-3 unfolding prefix."""
    return 4 + 9 * k, 3 + 8 * k


def undo_play(c: Chain) -> str:
    """Every user takes ``a_i`` in turn, then one step fires all k
    concurrent ``ra_i`` undo moves; the toggle cycles forever."""
    n = c.names
    steps = [n[f"a{i}"] for i in range(c.k)]
    undo = "+".join(n[f"ra{i}"] for i in range(c.k))
    return (" ".join(steps) + " " + undo + "\n"
            f"cycle: {n['te01']} {n['te10']}\n")


def _first_linearisation(c: Chain) -> str:
    """:func:`undo_play`'s steps with the undo moves in sorted name order."""
    n = c.names
    return " ".join([n[f"a{i}"] for i in range(c.k)]
                    + sorted(n[f"ra{i}"] for i in range(c.k)))


def undo_lasso(c: Chain) -> str:
    """The fairness-repaired computation of :func:`undo_play`: the first
    linearisation with one idle step per user appended to the cycle."""
    idles = " ".join(f"pass@u{i}" for i in range(c.k))
    return (_first_linearisation(c) + "\n"
            f"cycle: {c.names['te01']} {c.names['te10']} {idles}\n")


def undo_play_back(c: Chain) -> str:
    """The play that ``translate --lasso`` gives for :func:`undo_lasso`."""
    return (_first_linearisation(c) + "\n"
            f"cycle: {c.names['te01']} {c.names['te10']}\n")


def linearisations(k: int, bound: int = 1000) -> int:
    """Computations ``translate --play`` returns for :func:`undo_play`: the
    k! orders of the undo step, capped at ``bound``, plus the repaired
    one (the toggle cycle never schedules a user, so none is fair)."""
    return min(math.factorial(k), bound) + 1
