"""Turn-based asynchronous game structure of a distributed net system.

Players are indexed 0..n-1: users first (in the net's location order),
then the environment (index k), then the scheduler (index k+1 = n-1).
At every state the scheduler picks one of the k+1 other players; only the
selected player's move takes effect, so the transition function is
turn-based by construction.

Move lists are canonical: a user's moves are its enabled transitions in
lexicographic order followed by the idle move (None); the environment
moves are the enabled uncontrollable transitions, or a single idle move
when there are none.  The scheduler's j-th move selects player j.

Weak fairness constraints come in three families:
  * scheduler constraints: every non-scheduler player is selected
    infinitely often;
  * environment constraints, one per uncontrollable transition t: when t
    stays enabled, eventually the environment fires t or an enabled
    uncontrollable transition in conflict with it;
  * user progress constraints at states enabling only controllable
    transitions: a user with enabled transitions there must not idle at
    that state forever.

A constraint is satisfied by a lasso when it is disabled at some cycle
position or taken at some cycle step ("taken" for a non-scheduler player
also requires the scheduler to have selected that player).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BoundExceeded, InputError, PreconditionError
from .formulas import canonical_lasso
from .nets import (
    DEFAULT_STATE_BOUND,
    Marking,
    NetSystem,
    ReachabilityGraph,
    _dot_graph,
    format_marking,
    require_contact_free,
)
from .unfold import Play, _validate_play, format_play, interleavings, parse_play

SCHEDULER_NAME = "scheduler"
DEFAULT_LINEARISATION_BOUND = 1000


class GameStructure:
    """Immutable game structure over the reachable markings of a net."""

    def __init__(self, net: NetSystem, states: Sequence[Marking],
                 moves: Sequence[Sequence[tuple]],
                 successors: Sequence[Sequence[tuple]],
                 single_user_simplification: bool):
        self.net = net
        self.states = tuple(states)
        self.state_index = {m: i for i, m in enumerate(self.states)}
        self.user_count = len(net.users)
        self.player_count = self.user_count + 2
        self.env_player = self.user_count
        self.scheduler_player = self.player_count - 1
        self.player_names = tuple(net.users) + (net.env, SCHEDULER_NAME)
        #: moves[a][qi] is the tuple of move labels of player a at state qi
        #: (transition names or None for users/environment, player indices
        #: for the scheduler)
        self.moves = tuple(tuple(per_state) for per_state in moves)
        #: successors[a][qi][j] is the state reached when user or
        #: environment ``a`` is scheduled at ``qi`` and plays move ``j``
        self.successors = tuple(tuple(per_state) for per_state in successors)
        self.single_user_simplification = single_user_simplification
        #: per state, on first use: every non-scheduler player's idle move,
        #: or 0 where it has none
        self._idle_vectors: list = [None] * len(self.states)

    # -- basic queries -----------------------------------------------------

    def initial_state(self) -> int:
        return self.state_index[self.net.initial]

    def w(self, qi: int) -> frozenset:
        """Propositions true at a state: exactly its marking."""
        return self.states[qi]

    def d(self, player: int, qi: int) -> int:
        return len(self.moves[player][qi])

    def move_label(self, player: int, qi: int, j: int):
        try:
            return self.moves[player][qi][j]
        except IndexError:
            raise InputError(
                f"move {j} out of range for player {self.player_names[player]} "
                f"at state {format_marking(self.states[qi])}") from None

    def idle_move(self, player: int, qi: int) -> Optional[int]:
        labels = self.moves[player][qi]
        return labels.index(None) if None in labels else None

    def apply_move(self, qi: int, player: int, j: int) -> int:
        """Successor state when ``player`` is scheduled and plays move ``j``."""
        try:
            return self.successors[player][qi][j]
        except IndexError:
            self.move_label(player, qi, j)   # InputError for a bad move index
            raise

    def tau(self, qi: int, vector: Sequence[int]) -> int:
        """Transition function over full move vectors."""
        if len(vector) != self.player_count:
            raise InputError(f"move vector must have {self.player_count} components")
        scheduled = self.move_label(self.scheduler_player, qi, vector[self.scheduler_player])
        return self.apply_move(qi, scheduled, vector[scheduled])

    def move_vectors(self, qi: int):
        return itertools.product(*(range(self.d(a, qi))
                                   for a in range(self.player_count)))

    def vector_for(self, qi: int, player: int, j: int) -> tuple:
        """Canonical full vector: the scheduled player plays ``j``, users
        idle where possible and the environment picks its first move."""
        idle = self._idle_vectors[qi]
        if idle is None:
            idle = self._idle_vectors[qi] = tuple(
                self.idle_move(a, qi) or 0 for a in range(self.player_count - 1))
        return idle[:player] + (j,) + idle[player + 1:] + (player,)

    def edges(self, qi: int):
        """All (scheduled player, move index, successor) triples at a state."""
        for a in range(self.player_count - 1):
            for j, qj in enumerate(self.successors[a][qi]):
                yield a, j, qj


def build_game(net: NetSystem, single_user_simplification: bool = False,
               max_states: int = DEFAULT_STATE_BOUND,
               graph: Optional[ReachabilityGraph] = None) -> GameStructure:
    """The turn-based asynchronous game structure of a distributed net.

    ``graph``, when given, is the net's reachability graph and replaces
    the search this function would otherwise run.
    """
    if graph is None:
        graph = require_contact_free(net, max_states=max_states)
    else:
        graph.require_contact_free()
    users = net.users
    k = len(users)
    player_of = {u: a for a, u in enumerate(users)}
    player_of[net.env] = k
    owner = {t: player_of[net.location_of(t)] for t in net.transitions}

    # the search's own successor lists, renumbered through ``_rank`` here:
    # ``graph.out`` would build a canonical copy of every edge first
    rank = graph._rank
    moves: list[list[tuple]] = [[] for _ in range(k + 1)]
    successors: list[list[tuple]] = [[] for _ in range(k + 1)]
    for qi, b in enumerate(graph._order):
        labels = [[] for _ in range(k + 1)]
        targets = [[] for _ in range(k + 1)]
        for t, j in graph._succ[b]:
            a = owner[t]
            labels[a].append(t)
            targets[a].append(rank[j])
        uncontrollable = bool(labels[k])
        for a in range(k):
            if single_user_simplification and k == 1 and labels[a] \
                    and not uncontrollable:
                moves[a].append(tuple(labels[a]))
                successors[a].append(tuple(targets[a]))
            else:
                moves[a].append(tuple(labels[a]) + (None,))
                successors[a].append(tuple(targets[a]) + (qi,))
        if uncontrollable:
            moves[k].append(tuple(labels[k]))
            successors[k].append(tuple(targets[k]))
        else:
            moves[k].append((None,))
            successors[k].append((qi,))
    moves.append([tuple(range(k + 1))] * len(graph.states))
    return GameStructure(net, graph.states, moves, successors,
                         single_user_simplification)


@dataclass(frozen=True)
class FairnessConstraint:
    """A weak fairness constraint: a player and a per-state move subset."""
    player: int
    name: str
    moves: Mapping[int, frozenset]   # state index -> move indices; missing = empty

    def at(self, qi: int) -> frozenset:
        return self.moves.get(qi, frozenset())

    def enabled(self, qi: int) -> bool:
        return bool(self.moves.get(qi))


def build_fairness(net: NetSystem, g: GameStructure) -> tuple:
    """All weak fairness constraints of the game structure, in canonical
    order: scheduler constraints, per-transition environment constraints,
    user progress constraints."""
    constraints: list[FairnessConstraint] = []
    sched = g.scheduler_player
    n = len(g.states)
    for j in range(g.player_count - 1):
        constraints.append(FairnessConstraint(
            sched, f"schedule:{g.player_names[j]}",
            dict.fromkeys(range(n), frozenset({j}))))

    # an uncontrollable transition's group at a state: its own move and
    # the moves of its rivals, the uncontrollable transitions sharing an
    # input place with it
    env = g.env_player
    pre = {t: mask for t, mask, _ in net.kernel.arcs}
    uncontrollable = [t for t in sorted(net.transitions) if not net.is_controllable(t)]
    rivals = {t: frozenset(o for o in uncontrollable if o != t and pre[o] & pre[t])
              for t in uncontrollable}
    alone = [frozenset({j}) for j in range(len(uncontrollable))]
    per_transition: dict[str, dict[int, frozenset]] = {t: {} for t in uncontrollable}
    for qi, labels in enumerate(g.moves[env]):
        if labels[0] is None:
            continue
        for j, t in enumerate(labels):
            rival = rivals[t]
            per_transition[t][qi] = frozenset(
                i for i, o in enumerate(labels) if o == t or o in rival) \
                if rival else alone[j]
    for t in uncontrollable:
        constraints.append(FairnessConstraint(env, f"weak:{t}", per_transition[t]))

    if not g.single_user_simplification:
        for qi, m in enumerate(g.states):
            if g.moves[env][qi][0] is not None:
                continue
            label = format_marking(m)
            for a, user in enumerate(net.users):
                non_idle = frozenset(
                    j for j, move in enumerate(g.moves[a][qi]) if move is not None)
                if non_idle:
                    constraints.append(FairnessConstraint(
                        a, f"progress:{label}:{user}", {qi: non_idle}))
    return tuple(constraints)


# -- computations ---------------------------------------------------------------

@dataclass(frozen=True)
class LassoComputation:
    """An infinite computation: a finite prefix and a repeating cycle of
    (state index, move vector) steps; the cycle returns to its start."""
    prefix: tuple
    cycle: tuple


def validate_lasso(g: GameStructure, lasso: LassoComputation) -> None:
    if not lasso.cycle:
        raise InputError("a computation needs a non-empty cycle")
    steps = list(lasso.prefix) + list(lasso.cycle)
    for (qi, vec), (qj, _) in zip(steps, steps[1:]):
        if g.tau(qi, vec) != qj:
            raise InputError(
                f"inconsistent computation: tau does not lead from "
                f"{format_marking(g.states[qi])} to {format_marking(g.states[qj])}")
    last_q, last_vec = lasso.cycle[-1]
    if g.tau(last_q, last_vec) != lasso.cycle[0][0]:
        raise InputError("computation cycle does not close")


class FairnessReport:
    __slots__ = ("fair", "violated")

    def __init__(self, fair: bool, violated: tuple):
        self.fair = fair
        self.violated = violated

    def __bool__(self) -> bool:
        return self.fair


def lasso_is_fair(g: GameStructure, constraints: Iterable[FairnessConstraint],
                  lasso: LassoComputation) -> FairnessReport:
    """Validate the lasso, then apply :func:`_cycle_fairness`; no solver."""
    validate_lasso(g, lasso)
    return _cycle_fairness(g, constraints, lasso.cycle)


def _cycle_fairness(g: GameStructure, constraints: Iterable[FairnessConstraint],
                    cycle: tuple) -> FairnessReport:
    """The weak fairness rule on the cycle of a valid lasso: each
    constraint is disabled at some position, or taken at some step (with
    the right scheduler choice)."""
    violated = []
    for fc in constraints:
        for qi, vec in cycle:
            allowed = fc.at(qi)
            if not allowed or (vec[fc.player] in allowed and
                               (fc.player == g.scheduler_player or
                                vec[g.scheduler_player] == fc.player)):
                break
        else:
            violated.append(fc.name)
    return FairnessReport(not violated, tuple(violated))


def stutter_remove(g: GameStructure, lasso: LassoComputation
                   ) -> tuple[tuple, tuple]:
    """The stutter-free projection of a computation, as canonical
    (prefix, cycle) marking sequences; an empty cycle marks a finite
    projection whose last marking repeats forever."""
    validate_lasso(g, lasso)
    prefix_states = [g.states[qi] for qi, _ in lasso.prefix]
    cycle_states = [g.states[qi] for qi, _ in lasso.cycle]
    return canonical_lasso(prefix_states, cycle_states)


def computation_to_play(g: GameStructure, constraints: Iterable[FairnessConstraint],
                        lasso: LassoComputation) -> Play:
    """Project a fair computation of ``g`` to a play of ``g.net``: one
    event per non-idle step, one recorded cut after each event."""
    report = lasso_is_fair(g, constraints, lasso)
    if not report.fair:
        raise PreconditionError(
            "computation is not fair; violated: " + ", ".join(report.violated))

    steps = tuple((t,) for step in lasso.prefix
                  if (t := _scheduled_move(g, *step)[1]) is not None)
    cycle = tuple(t for step in lasso.cycle
                  if (t := _scheduled_move(g, *step)[1]) is not None)
    return Play(steps, cycle, ())


def _scheduled_move(g: GameStructure, qi: int, vec: Sequence[int]) -> tuple:
    """Decode a step: the scheduled player and the label of its move (a
    transition, or None for an idle move)."""
    scheduled = g.move_label(g.scheduler_player, qi, vec[g.scheduler_player])
    return scheduled, g.move_label(scheduled, qi, vec[scheduled])


def _transition_step(g: GameStructure, qi: int, t: str) -> tuple:
    """Encode a step: the (state, move vector) step in which the owner of
    transition ``t`` is scheduled at ``qi`` and fires ``t``."""
    owner = g.net.location_of(t)
    player = g.player_names.index(owner)
    try:
        j = g.moves[player][qi].index(t)
    except ValueError:
        raise InputError(f"transition {t} is not a move of {owner} at "
                         f"{format_marking(g.states[qi])}") from None
    return (qi, g.vector_for(qi, player, j))


def _walk(g: GameStructure, qi: int, tokens: Iterable, encode=_transition_step) -> tuple:
    """The steps ``encode(g, state, token)`` gives for the tokens in turn,
    from ``qi`` along ``g.tau``, and the state the last one reaches."""
    steps = []
    for token in tokens:
        step = encode(g, qi, token)
        steps.append(step)
        qi = g.tau(*step)
    return tuple(steps), qi


class _Computations(tuple):
    """The computations of a play, with ``fair``: the fairness of each
    (the plain ones share one cycle, so one value)."""


def play_to_computations(g: GameStructure, constraints: Iterable[FairnessConstraint],
                         play: Play,
                         bound: int = DEFAULT_LINEARISATION_BOUND) -> tuple:
    """All computations obtained by linearising the events between
    consecutive cuts of a valid play of ``g.net``, up to ``bound``; a
    deadlocked play gets the idle self-loop as its cycle.

    At least one returned computation is fair: when the plain
    linearisations are not, the first one is repaired by appending idle
    steps for every player the cycle never schedules.  The returned
    tuple's ``fair`` attribute holds each computation's fairness, decided
    by :func:`_cycle_fairness` once for the cycle the plain ones share and
    once for the repaired one (``tau`` built them, so none is validated).
    """
    constraints = tuple(constraints)
    diags, mat = _validate_play(g.net, play)
    if diags:
        raise PreconditionError("not a valid play: " + "; ".join(diags))
    bp = mat.bp

    # linear extensions per prefix gap, under the gap's causal order; the
    # product below is lexicographic, so its first ``bound`` tuples use
    # only the first ``bound`` orders of each gap
    gap_choices = [[tuple(bp.events[e].label for e in ext)
                    for ext in itertools.islice(interleavings(bp, fired),
                                               max(bound, 0))]
                   for fired in mat.step_events[: mat.cycle_starts_at]]

    # every order of a gap fires the same events from the same marking, so
    # each gap starts from one state whatever came before: each order is
    # walked once, and the cycle once, and shared by every computation
    walks: dict = {}     # (gap, order) -> (steps, end state)
    prefixes = []
    for choice in itertools.product(*(range(len(orders)) for orders in gap_choices)):
        if len(prefixes) >= bound:
            break
        prefix: list = []
        qi = g.initial_state()
        for gap, i in enumerate(choice):
            walk = walks.get((gap, i))
            if walk is None:
                walk = walks[gap, i] = _walk(g, qi, gap_choices[gap][i])
            steps, qi = walk
            prefix += steps
        prefixes.append(tuple(prefix))
    if not prefixes:
        raise BoundExceeded(
            f"no computation within linearisation bound {bound}", bound)
    if play.cycle:
        cycle, _ = _walk(g, qi, play.cycle)
    else:
        idle = g.idle_move(g.env_player, qi)
        cycle = ((qi, g.vector_for(qi, g.env_player, idle)),)
    computations = [LassoComputation(prefix, cycle) for prefix in prefixes]

    fair = [_cycle_fairness(g, constraints, cycle).fair] * len(computations)
    if not fair[0]:
        computations.append(_repair_fairness(g, computations[0]))
        fair.append(_cycle_fairness(g, constraints, computations[-1].cycle).fair)
    result = _Computations(computations)
    result.fair = tuple(fair)
    return result


def _repair_fairness(g: GameStructure, lasso: LassoComputation) -> LassoComputation:
    """Append idle steps at the end of the cycle for every player the
    scheduler never selects there (possible for every valid play: users
    can always idle, and the environment only starves in cycles whose
    states enable no uncontrollable transition)."""
    scheduled = {vec[g.scheduler_player] for _, vec in lasso.cycle}
    home = lasso.cycle[0][0]
    extra = []
    for player in range(g.player_count - 1):
        if player in scheduled:
            continue
        idle = g.idle_move(player, home)
        if idle is None:
            continue
        extra.append((home, g.vector_for(home, player, idle)))
    return LassoComputation(lasso.prefix, lasso.cycle + tuple(extra))


# -- lasso files -------------------------------------------------------------------
#
# Play files whose tokens are moves, one per step, with ``pass@<player>``
# for idle steps: written by ``format_play`` and read by ``parse_play``.

def format_lasso(g: GameStructure, lasso: LassoComputation) -> str:
    def token(step: tuple) -> str:
        scheduled, label = _scheduled_move(g, *step)
        return label if label is not None else f"pass@{g.player_names[scheduled]}"

    return format_play(Play(tuple((token(step),) for step in lasso.prefix),
                            tuple(map(token, lasso.cycle))))


def parse_lasso(g: GameStructure, text: str) -> LassoComputation:
    play = parse_play(text)    # play files have the same token syntax
    if play.trailing:
        raise InputError("lasso files cannot have trailing events")

    def encode(g: GameStructure, qi: int, token: str) -> tuple:
        if not token.startswith("pass@"):
            return _transition_step(g, qi, token)
        name = token[len("pass@"):]
        if name not in g.player_names[:-1]:
            raise InputError(f"unknown player in token {token!r}")
        player = g.player_names.index(name)
        idle = g.idle_move(player, qi)
        if idle is None:
            raise InputError(
                f"player {name} has no idle move at {format_marking(g.states[qi])}")
        return (qi, g.vector_for(qi, player, idle))

    def single(token: str) -> str:
        if "+" in token:
            raise InputError("lasso files take one move per step")
        return token

    # map is lazy, so each step is checked in file order as it is walked
    prefix, qi = _walk(g, g.initial_state(), map(single, map("+".join, play.steps)), encode)
    cycle, _ = _walk(g, qi, map(single, play.cycle), encode)
    lasso = LassoComputation(prefix, cycle)
    validate_lasso(g, lasso)
    return lasso


# -- inspection exports --------------------------------------------------------------

def dot_game(g: GameStructure) -> Iterator[str]:
    """DOT rendering: states labelled by markings, edges by scheduled
    player and move."""
    players = range(g.player_count - 1)
    texts: list = [{} for _ in players]          # per player: move -> edge label

    def row(qi: int) -> list:
        return [(texts[a].get(move) or texts[a].setdefault(
                    move, f"{g.player_names[a]}:{'pass' if move is None else move}"), qj)
                for a in players for move, qj in zip(g.moves[a][qi], g.successors[a][qi])]

    return _dot_graph("game", [format_marking(m) for m in g.states], g.initial_state(),
                      map(row, range(len(g.states))))


def fairness_table(g: GameStructure,
                   constraints: Iterable[FairnessConstraint]) -> Iterator[str]:
    """Tabular dump of move counts and fairness constraints, in whole
    lines: the header, each state's moves, then each constraint's rows."""
    def text(labels: tuple, picked: Iterable[int]) -> str:
        return ",".join("pass" if labels[j] is None else str(labels[j]) for j in picked)

    yield f"players: {' '.join(g.player_names)}\nmoves:\n"
    state_labels = [format_marking(m) for m in g.states]
    # games repeat a few move tuples and allowed sets across many states,
    # so every cell and every allowed-move text is formatted once
    cells: list = [{} for _ in g.player_names]   # per player: moves -> cell
    for qi, label in enumerate(state_labels):
        row = []
        for a, name in enumerate(g.player_names):
            labels = g.moves[a][qi]
            cell = cells[a].get(labels)
            if cell is None:
                cell = cells[a][labels] = f"{name}=[{text(labels, range(len(labels)))}]"
            row.append(cell)
        yield f"  {label}: {' '.join(row)}\n"
    yield "fairness:\n"
    heads = [f"    {label}: " for label in state_labels]
    texts: dict = {}                              # (moves, allowed) -> text
    for fc in constraints:
        parts = [f"  {fc.name} (player {g.player_names[fc.player]})\n"]
        moves = g.moves[fc.player]
        for qi, allowed in sorted(fc.moves.items()):
            if len(allowed) > 1:
                key = (moves[qi], allowed)
                line = texts.get(key) or texts.setdefault(key, text(moves[qi], sorted(allowed)))
            elif allowed:
                (j,) = allowed
                line = "pass" if moves[qi][j] is None else str(moves[qi][j])
            else:
                continue
            parts += heads[qi], line, "\n"
        yield "".join(parts)
