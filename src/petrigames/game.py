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
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BoundExceeded, InputError, PreconditionError
from .formulas import canonical_lasso
from .nets import (
    DEFAULT_STATE_BOUND,
    Marking,
    NetSystem,
    ReachabilityGraph,
    format_marking,
    require_contact_free,
)
from .unfold import Play, interleavings, materialise_play, parse_play, validate_play

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
        vec = []
        for a in range(self.player_count - 1):
            if a == player:
                vec.append(j)
            else:
                idle = self.idle_move(a, qi)
                vec.append(idle if idle is not None else 0)
        vec.append(player)
        return tuple(vec)

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
    elif graph.contact is not None:
        raise PreconditionError("build_game needs a contact-free net")
    users = net.users
    k = len(users)
    player_of = {u: a for a, u in enumerate(users)}
    player_of[net.env] = k
    owner = {t: player_of[net.location_of(t)] for t in net.transitions}

    moves: list[list[tuple]] = [[] for _ in range(k + 1)]
    successors: list[list[tuple]] = [[] for _ in range(k + 1)]
    for qi, succ in enumerate(graph.out):
        labels = [[] for _ in range(k + 1)]
        targets = [[] for _ in range(k + 1)]
        for t, qj in succ:
            a = owner[t]
            labels[a].append(t)
            targets[a].append(qj)
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
    """Check every weak fairness constraint on the cycle: disabled at some
    position, or taken at some step (with the right scheduler choice)."""
    validate_lasso(g, lasso)
    violated = []
    for fc in constraints:
        ok = False
        for qi, vec in lasso.cycle:
            allowed = fc.at(qi)
            if not allowed:
                ok = True
                break
            if vec[fc.player] in allowed and \
                    (fc.player == g.scheduler_player or
                     vec[g.scheduler_player] == fc.player):
                ok = True
                break
        if not ok:
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


def computation_to_play(net: NetSystem, g: GameStructure,
                        constraints: Iterable[FairnessConstraint],
                        lasso: LassoComputation) -> Play:
    """Project a fair computation to a play: one event per non-idle step,
    one recorded cut after each event."""
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


def play_to_computations(net: NetSystem, g: GameStructure,
                         constraints: Iterable[FairnessConstraint],
                         play: Play,
                         bound: int = DEFAULT_LINEARISATION_BOUND) -> tuple:
    """All computations obtained by linearising the events between
    consecutive cuts of a valid play, up to ``bound``; a deadlocked play
    gets the idle self-loop as its cycle.

    At least one returned computation is fair: when no plain
    linearisation is, the first one is repaired by appending idle steps
    for every player the cycle never schedules.
    """
    constraints = tuple(constraints)
    needed = sum(len(s) for s in play.steps) + len(play.cycle) + len(play.trailing)
    diags = validate_play(net, play, horizon=needed)
    if diags:
        raise PreconditionError("not a valid play: " + "; ".join(diags))

    mat = materialise_play(net, play, passes=1)
    bp = mat.bp

    # linear extensions per prefix gap, under the gap's causal order; the
    # product below is lexicographic, so its first ``bound`` tuples use
    # only the first ``bound`` orders of each gap
    gap_choices = [[tuple(bp.events[e].label for e in ext)
                    for ext in itertools.islice(interleavings(bp, fired),
                                               max(bound, 0))]
                   for fired in mat.step_events[: mat.cycle_starts_at]]

    def build(choice) -> LassoComputation:
        prefix, qi = _walk(g, g.initial_state(), itertools.chain.from_iterable(choice))
        if play.cycle:
            cycle, _ = _walk(g, qi, play.cycle)
        else:
            cycle = ((qi, g.vector_for(qi, g.env_player, g.idle_move(g.env_player, qi))),)
        return LassoComputation(prefix, cycle)

    computations = []
    for choice in itertools.product(*gap_choices):
        if len(computations) >= bound:
            break
        computations.append(build(choice))
    if not computations:
        raise BoundExceeded(
            f"no computation within linearisation bound {bound}", bound)

    if not any(lasso_is_fair(g, constraints, lam).fair for lam in computations):
        computations.append(_repair_fairness(g, computations[0]))
    return tuple(computations)


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
# Same shape as play files: transition tokens, one per step, with
# ``pass@<player>`` for idle steps and an optional ``cycle:`` line.

def format_lasso(g: GameStructure, lasso: LassoComputation) -> str:
    def token(qi: int, vec) -> str:
        scheduled, label = _scheduled_move(g, qi, vec)
        return label if label is not None else f"pass@{g.player_names[scheduled]}"

    lines = []
    if lasso.prefix:
        lines.append(" ".join(token(qi, vec) for qi, vec in lasso.prefix))
    lines.append("cycle: " + " ".join(token(qi, vec) for qi, vec in lasso.cycle))
    return "\n".join(lines) + "\n"


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

    def single(step: tuple) -> str:
        if len(step) != 1:
            raise InputError("lasso files take one move per step")
        return step[0]

    # map is lazy, so each step is checked in file order as it is walked
    prefix, qi = _walk(g, g.initial_state(), map(single, play.steps), encode)
    cycle, _ = _walk(g, qi, play.cycle, encode)
    lasso = LassoComputation(prefix, cycle)
    validate_lasso(g, lasso)
    return lasso


# -- inspection exports --------------------------------------------------------------

def dot_game(g: GameStructure) -> str:
    """DOT rendering: states labelled by markings, edges by scheduled
    player and move."""
    out = ["digraph game {", "  rankdir=LR;", "  node [shape=ellipse];"]
    labels = [format_marking(m) for m in g.states]
    q0 = g.initial_state()
    for qi, label in enumerate(labels):
        mark = " penwidth=2" if qi == q0 else ""
        out.append(f'  "{label}" [label="{label}"{mark}];')
    for qi, label in enumerate(labels):
        for a in range(g.player_count - 1):
            name = g.player_names[a]
            for move, qj in zip(g.moves[a][qi], g.successors[a][qi]):
                text = move if move is not None else "pass"
                out.append(f'  "{label}" -> "{labels[qj]}" [label="{name}:{text}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def fairness_table(g: GameStructure, constraints: Iterable[FairnessConstraint]) -> str:
    """Tabular dump of move counts and fairness constraints."""
    lines = [f"players: {' '.join(g.player_names)}", "moves:"]
    state_labels = [format_marking(m) for m in g.states]
    for qi, label in enumerate(state_labels):
        cells = []
        for a, name in enumerate(g.player_names):
            text = ",".join("pass" if x is None else str(x) for x in g.moves[a][qi])
            cells.append(f"{name}=[{text}]")
        lines.append(f"  {label}: " + " ".join(cells))
    lines.append("fairness:")
    for fc in constraints:
        lines.append(f"  {fc.name} (player {g.player_names[fc.player]})")
        moves = g.moves[fc.player]
        for qi, allowed in sorted(fc.moves.items()):
            if allowed:
                labels = moves[qi]
                text = ",".join("pass" if labels[j] is None else str(labels[j])
                                for j in sorted(allowed))
                lines.append(f"    {state_labels[qi]}: " + text)
    return "\n".join(lines) + "\n"
