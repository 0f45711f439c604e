"""Memoryless strategy synthesis and ATL model checking on the game
structure.

Two engines answer the same question -- does the grand coalition have a
memoryless profile under which every fair computation satisfies the path
formula (and at least one fair computation exists)?  Each only finds the
canonically first winning profile:

* ``enumerate`` (:func:`_sweep`) decides every profile exactly, in
  canonical order, at every start state still undecided; it is the
  correctness oracle.  It skips each profile that agrees with a refuted
  one on every slot that one's check read.
* ``fixpoint`` (:func:`_label_fixpoint`) calls a state lost when the
  adversary (environment plus scheduler) forces a fair violating
  computation even against users with full memory, and otherwise runs a
  slot search (:func:`_search`) whose witness also retires every other
  pending state it wins from.  The search abandons a partial profile as
  soon as the adversary wins against full memory on its free slots.
  Both questions are one fair-game solve (:meth:`_FairGame.solve`), for
  any set of roots: weak fairness makes it a generalized Buechi game,
  solved by the Emerson-Lei nested fixpoint on the (state, monitor)
  rows.  The least completion of a surviving partial profile is checked
  exactly, and only slots whose state it can reach are branched on, so
  both engines find identical witnesses.

One call, :func:`_label`, gives ``model_check`` and ``synthesize`` the
won states and ``q0``'s witness under each engine.  ``model_check``
decides its coalitions at every state, or, without ``every_state``, its
outermost ones at ``q0`` alone, as ``synthesize`` does.  ``both`` runs
the two labellings and compares their state sets and ``q0``'s witness,
the only one a report prints.
:func:`_verdict` builds every :class:`Verdict`: the witness, or else the
lasso and reason of the canonically first profile (every move 0), so an
unsatisfied goal prints the same evidence under every engine.

Both engines read one product of the game with a monitor automaton for
the path formula (2 states for G, 3 for U): ``_FairGame`` builds, lazily
and once, a row per (state, monitor) node listing the node each move
reaches, and one walk over these rows (:meth:`_FairGame._walk`) serves
the exact check and the fair game's solve.  ``model_check``
shares one such arena among all the states it labels for a coalition,
and one label table (:func:`_label_table`) among all its arenas.

Inside the solver a memoryless profile is one flat vector of move
indices: slot ``a * n + qi`` holds user ``a``'s move at state ``qi`` of
``n`` (:func:`_slot_sizes`).  A :class:`GameProfile` exists only at the
API edge.

Verification of a profile walks the rows with every slot fixed to the
profile's moves (:func:`_product`), and looks for strongly connected
components holding a cycle that satisfies every weak fairness constraint
(disabled at some position or taken at some step).  Weak fairness makes
this a generalized Buechi condition, so SCC inspection is exact: each
step carries its label-table mask, and a component holds a fair cycle
iff the OR of its internal steps' masks has every bit.  A start row wins
iff it reaches a fair component and no fair violating one, the one win
rule for a fixed profile: one Tarjan pass and one sweep down its
condensation decide every start row, for the enumerate sweep, the
search's probe, a witness's retiring and the exact check.

Every entry point resolves its start state ``q0`` once, with ``_start``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BoundExceeded, EngineDisagreement, InputError
from .formulas import (
    And,
    Coalition,
    Formula,
    Not,
    Or,
    PathFormula,
    Prop,
    TrueConst,
    check_fragment,
    format_formula,
    holds_in,
    operands,
    subformulas,
)
from .game import (
    FairnessConstraint,
    GameStructure,
    LassoComputation,
    build_fairness,
    build_game,
)
from .nets import DEFAULT_STATE_BOUND, NetSystem, format_marking, marking_key, parse_marking, \
    significant_lines
from .unfold import NetStrategy

DEFAULT_PROFILE_BOUND = 200_000

# monitor states
_PENDING, _SAT, _FAILED = 0, 1, 2


@dataclass(frozen=True)
class PathObjective:
    """A path formula compiled to per-state truth tables."""
    op: str                      # "G" or "U"
    left: tuple
    right: Optional[tuple] = None

    @staticmethod
    def from_path_formula(g: GameStructure, pf: PathFormula) -> "PathObjective":
        left = tuple(holds_in(pf.left, g.w(qi)) for qi in range(len(g.states)))
        right = None
        if pf.op == "U":
            right = tuple(holds_in(pf.right, g.w(qi)) for qi in range(len(g.states)))
        return PathObjective(pf.op, left, right)

    @staticmethod
    def from_state_sets(g: GameStructure, op: str, left: frozenset,
                        right: Optional[frozenset] = None) -> "PathObjective":
        n = len(g.states)
        return PathObjective(
            op,
            tuple(qi in left for qi in range(n)),
            tuple(qi in right for qi in range(n)) if right is not None else None)

    def monitor_step(self, mon: int, qi: int) -> int:
        if self.op == "G":
            if mon == _FAILED:
                return _FAILED
            return _PENDING if self.left[qi] else _FAILED
        if mon in (_SAT, _FAILED):
            return mon
        if self.right[qi]:
            return _SAT
        if not self.left[qi]:
            return _FAILED
        return _PENDING

    def violating_monitors(self) -> frozenset:
        # G: a violation was seen; U: failed, or pending forever
        return frozenset({_FAILED}) if self.op == "G" \
            else frozenset({_PENDING, _FAILED})


def _arena(g: GameStructure, constraints: Sequence[FairnessConstraint],
           pf) -> "_FairGame":
    """The product arena of ``pf``, a path formula or an objective."""
    return _FairGame(g, constraints, pf if isinstance(pf, PathObjective)
                     else PathObjective.from_path_formula(g, pf))


@dataclass(frozen=True)
class GameProfile:
    """One memoryless strategy per user: a move index for every state."""
    moves: tuple    # moves[user][state index] -> move index

    def move(self, user: int, qi: int) -> int:
        return self.moves[user][qi]


def validate_game_profile(g: GameStructure, profile: GameProfile) -> None:
    if len(profile.moves) != g.user_count:
        raise InputError(f"profile must cover {g.user_count} users")
    for a, per_state in enumerate(profile.moves):
        if len(per_state) != len(g.states):
            raise InputError("profile must assign a move at every state")
        for qi, j in enumerate(per_state):
            if not isinstance(j, int):
                raise InputError(
                    f"move {j!r} of user {g.player_names[a]} at "
                    f"{format_marking(g.states[qi])} is not a move index")
            if not 0 <= j < g.d(a, qi):
                raise InputError(
                    f"move {j} out of range for user {g.player_names[a]} at "
                    f"{format_marking(g.states[qi])}")


def _slot_sizes(g: GameStructure) -> list:
    """Every slot's number of moves, in slot order: slot ``a * n + qi`` of
    a flat profile vector holds user ``a``'s move at state ``qi``, for
    ``n`` states.  Users are major, so the vectors' lexicographic order is
    the canonical profile order and ``flat[qi::n]`` lists the users' moves
    at ``qi``."""
    return [len(moves) for per_state in g.moves[:g.user_count] for moves in per_state]


def profile_space(g: GameStructure) -> int:
    return math.prod(_slot_sizes(g))


def iter_profiles(g: GameStructure):
    """All profiles in canonical order: users major, states minor, move
    indices ascending."""
    for flat in itertools.product(*map(range, _slot_sizes(g))):
        yield _profile(g, flat)


def _profile(g: GameStructure, flat: tuple) -> GameProfile:
    """The :class:`GameProfile` of the flat slot vector ``flat``, built
    only where a profile leaves the solver."""
    n = len(g.states)
    return GameProfile(tuple(flat[start:start + n] for start in range(0, len(flat), n)))


def _start(g: GameStructure, q0: Optional[int]) -> int:
    """The start state: ``q0``, or the initial state when it is None."""
    if q0 is None:
        return g.initial_state()
    if not 0 <= q0 < len(g.states):
        raise InputError(f"unknown state index {q0}")
    return q0


@dataclass
class Verdict:
    satisfied: bool
    witness: Optional[GameProfile] = None
    counterexample: Optional[LassoComputation] = None
    reason: str = ""
    # subformula text -> its states' markings, sorted; set by model_check
    # only when it labels every state (``every_state``)
    state_sets: dict = field(default_factory=dict)


@dataclass
class VerifyOutcome:
    ok: bool
    counterexample: Optional[LassoComputation]
    reason: str


def _profile_vector(g: GameStructure, flat: Sequence[int],
                    qi: int, scheduled: int, j: int) -> tuple:
    vec = [j if a == scheduled else move
           for a, move in enumerate(flat[qi::len(g.states)])]
    vec.append(j if scheduled == g.env_player else 0)
    vec.append(scheduled)
    return tuple(vec)


def verify_profile(g: GameStructure, constraints: Sequence[FairnessConstraint],
                   profile: GameProfile, pf, q0: Optional[int] = None,
                   ) -> VerifyOutcome:
    """Exact check of one profile: true iff fair computations from q0 exist
    and every one of them satisfies the path formula.

    On failure returns a fair violating lasso, or a reason when the
    profile admits no fair computation at all.
    """
    validate_game_profile(g, profile)
    q0 = _start(g, q0)
    flat = tuple(j for per_state in profile.moves for j in per_state)
    return _check(_arena(g, constraints, pf), flat, q0)


def _check(game: _FairGame, flat: Sequence[int], q0: int) -> VerifyOutcome:
    """:func:`verify_profile` on a flat profile, decided by :func:`_product`
    on integer-numbered rows.  A lost root reaches every row of the
    product, so its lasso goes to the fair violating component holding the
    least row; the ``(target, player, move)`` edges the lasso needs are
    rebuilt only then."""
    g = game.g
    root = game.start(q0)
    (won,), rows, component, violating = _product(game, flat, [root])
    if won:
        return VerifyOutcome(True, None, "")
    if not violating:
        return VerifyOutcome(
            False, None, "profile admits no fair computation from the initial state")
    c = component[min(violating, key=rows.__getitem__)]
    # the lasso's shortest paths break ties by edge order
    adjacency = {}
    for qi, mon in rows:
        row = game.row(qi, mon)
        edges = [(row[a][j], a, j) for a, j in enumerate(flat[qi::len(g.states)])]
        edges.extend((target, g.env_player, j)
                     for j, target in enumerate(row[g.env_player]))
        adjacency[(qi, mon)] = sorted(edges)
    lasso = _extract_lasso(game, flat, adjacency, root, frozenset(
        node for node, cv in zip(rows, component) if cv == c))
    return VerifyOutcome(False, lasso, "fair violating computation found")


def _winners(game: _FairGame, flat: Sequence[int], roots: Sequence) -> tuple:
    """``(won, lost)``: the rows of ``roots`` from which the flat profile
    wins, and the rest, from one :func:`_product` for all of them."""
    won = _product(game, flat, roots)[0]
    return [r for r, w in zip(roots, won) if w], [r for r, w in zip(roots, won) if not w]


def _product(game: _FairGame, flat: Sequence[int], roots: Sequence) -> tuple:
    """The one win rule for a fixed profile: a root wins iff its rows reach
    a fair strongly connected component and no fair violating one.
    Returns ``(won, rows, component, violating)``: per root whether the
    flat profile wins from it; the rows it reaches from ``roots``;
    every row's component number; and the rows of fair violating
    components.

    The graph is the masked walk (:meth:`_FairGame._walk`) with every slot
    fixed, so each row has ``(target, mask)`` steps, one per user and one
    per environment move, with the label table's raw masks.  Every mask
    has the top bit, so a component holds a fair cycle iff the OR of its
    internal steps' masks has every bit: a constraint disabled at one of
    its rows is met by that row's internal steps, and a single row with no
    self-loop has none.  Tarjan numbers a component after every component
    it reaches, so one sweep in that order carries down the condensation
    whether a component reaches a fair violating component (bit 1) or a
    fair one (bit 2)."""
    succ, _, rows = game._walk(flat, roots)
    component = _strongly_connected_components(succ, range(len(roots)))
    met = [0] * len(succ)       # per component, the OR of its internal edges
    for v, edges in enumerate(succ):
        c = component[v]
        for t, mask in edges:
            if component[t] == c:
                met[c] |= mask
    reach = [0] * len(succ)
    violating = []
    for v in sorted(range(len(rows)), key=component.__getitem__):
        c = component[v]
        if met[c] == game._goals:
            if rows[v][1] in game._violating:
                reach[c] |= 1
                violating.append(v)
            else:
                reach[c] |= 2
        for t, _ in succ[v]:
            reach[c] |= reach[component[t]]
    won = [reach[component[i]] == 2 for i in range(len(roots))]
    return won, rows, component, violating


def _strongly_connected_components(succ: Sequence, roots: Iterable) -> list:
    """Iterative Tarjan on the nodes ``0..n-1`` of ``succ``, all reachable
    from the nodes ``roots``, where ``succ[v]`` lists ``(target, mask)``
    edges.  Returns every node's component number, numbered in the order
    found: a component's number exceeds those of all it reaches."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    component = [-1] * n        # -1 while unvisited or on the stack
    stack, counter, found = [], 0, 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for t, _ in edges:
                if index[t] < 0:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    work.append((t, iter(succ[t])))
                    break
                if component[t] < 0 and index[t] < low[v]:
                    low[v] = index[t]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = found
                        if w == v:
                            break
                    found += 1
    return component


def _extract_lasso(game: _FairGame, flat: Sequence[int],
                   adjacency: Mapping, root, component: frozenset
                   ) -> LassoComputation:
    """Deterministic counterexample: shortest path to the component, then a
    tour visiting a witness (disabled position or taken edge) for every
    constraint, closed back to its anchor.  Where a constraint is enabled
    at every row of the component, its label-table bit marks the edges
    that take it."""
    g = game.g

    def bfs(source, goal_test, allowed=None):
        # returns the edge list of a shortest path; ties broken by edge order
        seen = {source: None}
        queue = [source]
        while queue:
            nxt = []
            for node in queue:
                if goal_test(node):
                    path = []
                    while seen[node] is not None:
                        prev, edge = seen[node]
                        path.append((prev, edge))
                        node = prev
                    return list(reversed(path))
                for edge in adjacency[node]:
                    target = edge[0]
                    if allowed is not None and target not in allowed:
                        continue
                    if target not in seen:
                        seen[target] = (node, edge)
                        nxt.append(target)
            queue = nxt
        raise AssertionError("bfs goal unreachable")

    anchor = min(component)
    prefix_edges = bfs(root, lambda n: n == anchor)

    tour = []
    pos = anchor
    for i, fc in enumerate(game.constraints):
        if any(not fc.enabled(n[0]) for n in component):
            segment = bfs(pos, lambda n: not fc.enabled(n[0]), allowed=component)
            tour.extend(segment)
            pos = segment[-1][1][0] if segment else pos
            continue

        def takes(node, edge):
            target, a, j = edge
            return target in component and game.labels[node[0]][a][j] >> i & 1

        taken_sources = {n for n in component
                         if any(takes(n, edge) for edge in adjacency[n])}
        segment = bfs(pos, lambda n: n in taken_sources, allowed=component)
        tour.extend(segment)
        pos = segment[-1][1][0] if segment else pos
        edge = next(e for e in adjacency[pos] if takes(pos, e))
        tour.append((pos, edge))
        pos = edge[0]
    if not tour:
        edge = next(e for e in adjacency[anchor] if e[0] in component)
        tour.append((anchor, edge))
        pos = edge[0]
    tour.extend(bfs(pos, lambda n: n == anchor, allowed=component))

    def steps(edge_list):
        return tuple((node[0], _profile_vector(g, flat, node[0], a, j))
                     for node, (target, a, j) in edge_list)

    return LassoComputation(steps(prefix_edges), steps(tour))


# -- enumerative engine ---------------------------------------------------------

def _sweep(game: _FairGame, states: Sequence[int], max_profiles: int) -> dict:
    """The enumerative witness finder, the correctness oracle: the
    profiles in canonical order, each checked exactly on one arena against
    every state of ``states`` it has not yet won from, all in one pass
    (:func:`_product`).  Returns each state's first winning profile, as a
    flat slot vector, or None, keyed by the state.

    A profile's product reads only the choice slots (more than one move)
    of the states its rows hold, its conflict: every profile agreeing with
    a refuted one there is refuted too, and is skipped (conflict-directed
    backjumping).  The sweep backtracks from the deepest choice slot: one
    outside the conflict goes back to 0 and is passed over; one inside it
    adds the conflict, less itself, to what its depth has accumulated and
    takes its next move, or, with every move spent, passes the accumulated
    conflict up.  Every skipped profile wins no pending state, so each
    state's witness is still the first winner in canonical order.
    Conflicts are masks over the choice slots' depths."""
    g = game.g
    sizes = _slot_sizes(g)
    space = math.prod(sizes)
    if space > max_profiles:
        raise BoundExceeded(
            f"profile space of size {space} exceeds the enumeration bound "
            f"{max_profiles}; use the fixpoint engine", max_profiles)
    n = len(g.states)
    slots = [slot for slot, size in enumerate(sizes) if size > 1]
    reads = [0] * n     # per state, the depths of its choice slots
    for depth, slot in enumerate(slots):
        reads[slot % n] |= 1 << depth
    spent = [0] * len(slots)    # per depth, the conflicts of its moves so far
    flat = [0] * len(sizes)
    witnesses = dict.fromkeys(states)
    pending = [game.start(qi) for qi in states]
    while True:
        profile = tuple(flat)
        won, rows, _, _ = _product(game, profile, pending)
        witnesses.update((root[0], profile) for root, w in zip(pending, won) if w)
        pending = [root for root, w in zip(pending, won) if not w]
        if not pending:
            return witnesses
        conflict = 0
        for qi, _ in rows:
            conflict |= reads[qi]
        depth = len(slots)
        while depth:
            depth -= 1
            bit = 1 << depth
            if conflict & bit:
                spent[depth] |= conflict ^ bit
                slot = slots[depth]
                if flat[slot] + 1 < sizes[slot]:
                    flat[slot] += 1
                    break
                conflict = spent[depth]
            flat[slots[depth]] = 0
            spent[depth] = 0
        else:
            return witnesses


# -- fixed-point engine -----------------------------------------------------------

class _FairGame:
    """The (state, monitor) product of one objective, and its fair game as
    an arena shared by every slot assignment and every start state.

    :meth:`row` lists, once per ``(qi, mon)``, the ``(qj, mon')`` each move
    of each user and of the environment reaches, and ``labels`` is the
    game's label table (:func:`_label_table`), given when arenas share it:
    the weak fairness constraints each move meets.  :meth:`_walk` is the
    only walk over these rows, with the table's raw masks: the exact check
    (:func:`_product`, every slot fixed) and the game solve (:meth:`solve`,
    for any set of roots) read its result, and :func:`_extract_lasso`
    finds taken edges in the same table.  At a row the adversary
    (scheduler and environment) picks one environment move, or a user:
    that user's fixed move, or any of its moves while its slot is free,
    since the user chooses.  The monitor is eventually constant on a play,
    so "the monitor violates" is folded into every constraint: the
    adversary wins by forcing a play that meets each constraint infinitely
    often from violating rows, a generalized Buechi condition solved by
    :func:`_adversary_region`.  The rows are built once, lazily from each
    new start state.
    """

    def __init__(self, g: GameStructure, constraints: Sequence[FairnessConstraint],
                 objective: PathObjective, labels: Optional[list] = None):
        self.g = g
        self.constraints = tuple(constraints)
        self.objective = objective
        self.labels = labels or _label_table(g, self.constraints)
        self._violating = objective.violating_monitors()
        self._goals = (2 << len(self.constraints)) - 1   # all mask bits
        self._rows: dict = {}       # (qi, mon) -> per player, per move (qj, mon')
        self._options: dict = {}    # (qi, mon) -> (choices, static)

    def row(self, qi: int, mon: int) -> tuple:
        """For each user, then the environment, the ``(qj, mon')`` that
        each of its moves reaches from ``(qi, mon)``."""
        row = self._rows.get((qi, mon))
        if row is None:
            step = self.objective.monitor_step
            row = self._rows[(qi, mon)] = tuple(
                tuple((qj, step(mon, qj)) for qj in per_state[qi])
                for per_state in self.g.successors)
        return row

    def start(self, q0: int) -> tuple:
        return q0, self.objective.monitor_step(_PENDING, q0)

    def _build_options(self, node: tuple) -> tuple:
        """A row's moves as ``(target, mask)`` steps with the label table's
        raw masks, built once: ``choices``, the user and steps of each user
        with more than one move, and ``static``, the steps of the other
        users and of every environment move."""
        choices, static = [], []
        for a, (targets, masks) in enumerate(zip(self.row(*node), self.labels[node[0]])):
            moves = tuple(zip(targets, masks))
            if a != self.g.env_player and len(moves) > 1:
                choices.append((a, moves))
            else:
                static.extend(moves)
        options = self._options[node] = (choices, static)
        return options

    def _walk(self, fixed: Sequence, roots: Sequence) -> tuple:
        """The rows ``roots`` reach under the flat slot vector ``fixed``,
        numbered from 0 in discovery order (the roots first), as ``(steps,
        free, order)``: per row, the ``(target, mask)`` steps of each fixed
        or only user move and of every environment move; the steps of each
        free slot's user, one list per user; and the rows themselves."""
        n = len(self.g.states)
        local = {root: i for i, root in enumerate(roots)}
        order = list(roots)
        steps, free = [], []
        for node in order:
            choices, alone = self._options.get(node) or self._build_options(node)
            row = [alone]           # then each free user's moves
            if choices:
                here = fixed[node[0]::n]
                picked = []
                for a, moves in choices:
                    if here[a] is None:
                        row.append(moves)
                    else:
                        picked.append(moves[here[a]])
                row[0] = picked + alone
            renumbered = []
            for moves in row:
                out = []
                for target, mask in moves:
                    i = local.get(target)
                    if i is None:
                        i = local[target] = len(order)
                        order.append(target)
                    out.append((i, mask))
                renumbered.append(out)
            steps.append(renumbered[0])
            free.append(renumbered[1:])
        return steps, free, order

    def solve(self, fixed: Sequence, roots: Sequence) -> tuple:
        """``(won, reached)``: ``won`` says, for each row of ``roots``,
        whether the adversary wins from it against the flat slot vector
        ``fixed`` (:func:`_slot_sizes`), where a free slot, None, lets the
        user choose at each visit, with unrestricted memory; ``reached``
        holds the states of the rows the masked walk reaches.  A free slot
        takes every move there, so no completion of ``fixed`` reaches any
        other state.  With every slot free, a won root is lost to every
        memoryless profile."""
        walk = self._walk(fixed, roots)
        return (_adversary_region(walk, len(roots), self._violating, self._goals),
                {qi for qi, _ in walk[2]})


def _label_table(g: GameStructure, constraints: Sequence[FairnessConstraint]) -> list:
    """For every state, for each user and then the environment, the mask of
    the weak fairness constraints each of its moves meets there (bit ``i``:
    constraint ``i`` is disabled at the state or taken by the move), with
    the top bit always set: a state's disabled bits OR'd with each move's
    taken bits, read from the constraints' own move sets.  A key naming no
    state is ignored; an entry naming no player or move of the game is
    never taken, though it still enables its constraint at its state."""
    states, players = range(len(g.states)), range(len(g.successors))
    disabled = [(2 << len(constraints)) - 1] * len(states)
    taken = [[[0] * len(per_state[qi]) for per_state in g.successors] for qi in states]
    for i, fc in enumerate(constraints):
        bit = 1 << i
        for qi, chosen in fc.moves.items():
            if qi not in states or not chosen:
                continue
            disabled[qi] &= ~bit
            if fc.player == g.scheduler_player:     # every move of a chosen player
                for a in chosen:
                    if a in players:
                        taken[qi][a] = [move | bit for move in taken[qi][a]]
            elif fc.player in players:
                moves = taken[qi][fc.player]
                for j in chosen:
                    if j in range(len(moves)):
                        moves[j] |= bit
    return [tuple(tuple(disabled[qi] | move for move in moves) for moves in taken[qi])
            for qi in states]


def _adversary_region(walk: tuple, roots: int, violating: frozenset,
                      goals: int) -> list:
    """Whether the adversary wins from each of the first ``roots`` rows of
    a :meth:`_FairGame._walk`, for 'meet every constraint bit of ``goals``
    infinitely often'.  At row ``v`` the adversary picks a step of
    ``steps[v]`` or a user of ``free[v]``, who picks the step, so a row
    forces a set when one step, or every step of one free user, lies in
    it.  A step meets its mask's bits from a row whose monitor is in
    ``violating``, and nothing from any other row (``meets``).

    Emerson-Lei nested fixpoint: the greatest ``Z`` such that every row of
    ``Z`` forces, for each constraint, a step meeting it into ``Z``,
    possibly after forced steps within ``Z``.  The least fixpoints of all
    constraints are computed together, one bit each: ``forced[v]`` holds
    the constraints row ``v`` can force so far.  ``Z`` shrinks to the rows
    forcing every constraint until it is stable, or until no root is left
    in it: ``Z`` only shrinks, so a root that has left it never returns
    and the answer is exact at every root."""
    steps, free, order = walk
    meets = [goals if mon in violating else 0 for _, mon in order]
    n = len(steps)
    preds: list = [[] for _ in range(n)]
    for v, row in enumerate(steps):
        for t, _ in itertools.chain(row, *free[v]):
            preds[t].append(v)
    alive = [True] * n
    while True:
        forced = [0] * n
        todo = [v for v in range(n) if alive[v]]
        queued = alive[:]
        while todo:
            v = todo.pop()
            queued[v] = False
            meet = meets[v]
            value = 0
            for t, mask in steps[v]:
                if alive[t]:
                    value |= forced[t] | mask & meet
            for moves in free[v]:
                both = goals
                for t, mask in moves:
                    both &= forced[t] | mask & meet if alive[t] else 0
                    if not both:
                        break
                value |= both
            if value != forced[v]:
                forced[v] = value
                for p in preds[v]:
                    if alive[p] and not queued[p]:
                        queued[p] = True
                        todo.append(p)
        kept = [bits == goals for bits in forced]
        if kept == alive or not any(kept[:roots]):
            return kept[:roots]
        alive = kept


def _search(game: _FairGame, q0: int) -> Optional[tuple]:
    """The canonically first memoryless profile that wins from ``q0``, as a
    flat slot vector, or None.

    A depth-first sweep fixes user moves slot by slot in canonical order,
    and cuts a branch as soon as the adversary wins the fair game against
    users with unrestricted memory on the free slots (sound: the
    restriction only weakens the users).  Where it does not, the node's
    least completion (every free slot at move 0) is checked exactly if it
    changed since the last check, at the root or after a backtrack moved a
    slot; a winning one is the witness, since every earlier subtree is
    refuted.  The sweep branches only on slots whose state the node's
    masked walk reaches: no completion reaches the others, so their slots
    stay 0 until the sweep backtracks past them.  It keeps its own slot
    stack, so its depth is not bounded by recursion.
    """
    root = game.start(q0)
    n = len(game.g.states)
    sizes = _slot_sizes(game.g)
    slots = [slot for slot, size in enumerate(sizes) if size > 1]
    fixed = [None] * len(sizes)     # None while a slot is free
    skipped = [False] * len(slots)  # fixed to 0 without branching
    depth = 0       # slots[:depth] are fixed
    probe = True    # the least completion changed since the last check
    while True:
        (won,), reached = game.solve(fixed, [root])
        if not won:
            if probe:
                flat = tuple(j or 0 for j in fixed)
                if _winners(game, flat, [root])[0]:
                    return flat
                probe = False
            # fix slots to 0 in order, branching on the first reached one,
            # up to the next reached one
            branched = False
            while depth < len(slots):
                slot = slots[depth]
                skipped[depth] = slot % n not in reached
                if not skipped[depth]:
                    if branched:
                        break
                    branched = True
                fixed[slot] = 0
                depth += 1
            if depth < len(slots):
                continue
            # every slot is fixed: the vector is the last, refuted check's
        # backtrack to the deepest branched slot with an untried move
        while depth:
            depth -= 1
            slot = slots[depth]
            if not skipped[depth] and fixed[slot] + 1 < sizes[slot]:
                fixed[slot] += 1
                depth += 1
                probe = True
                break
            fixed[slot] = None
        else:
            return None


# -- verdicts ---------------------------------------------------------------------

ENGINES = ("enumerate", "fixpoint", "both")


def _require_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}")


def _label(game: _FairGame, q0: int, states: Sequence[int], engine: str,
           max_profiles: int) -> tuple:
    """The states of ``states`` from which some memoryless profile wins on
    ``game``, and the canonically first flat witness at ``q0``, one of
    ``states``, or None.  ``enumerate`` sweeps (:func:`_sweep`),
    ``fixpoint`` labels with :func:`_label_fixpoint`, and ``both`` runs
    the two and raises :class:`EngineDisagreement` where their state sets
    differ, or else their witnesses at ``q0``, the only one printed."""
    if engine == "fixpoint":
        return _label_fixpoint(game, q0, states)
    swept = _sweep(game, states, max_profiles)
    won = frozenset(qi for qi in states if swept[qi] is not None)
    if engine == "both":
        pruned, witness = _label_fixpoint(game, q0, states)
        for qi in states:
            if (qi in won) != (qi in pruned):
                raise EngineDisagreement(
                    f"engines disagree: enumerate={qi in won} fixpoint={qi in pruned}")
        if witness != swept[q0]:
            raise EngineDisagreement("engines disagree on the witness profile")
    return won, swept[q0]


def _verdict(game: _FairGame, q0: int, witness: Optional[tuple]) -> Verdict:
    """Every :class:`Verdict`: the witness a finder returned at ``q0``, or
    else the canonically first profile's lasso and reason (:func:`_check`)."""
    g = game.g
    if witness is not None:
        return Verdict(True, witness=_profile(g, witness))
    first = _check(game, (0,) * len(_slot_sizes(g)), q0)
    return Verdict(False, counterexample=first.counterexample, reason=first.reason)


def synthesize(g: GameStructure, constraints: Sequence[FairnessConstraint], pf,
               q0: Optional[int] = None, engine: str = "enumerate",
               max_profiles: int = DEFAULT_PROFILE_BOUND) -> Verdict:
    _require_engine(engine)
    q0 = _start(g, q0)
    game = _arena(g, constraints, pf)
    return _verdict(game, q0, _label(game, q0, [q0], engine, max_profiles)[1])


def synthesize_enumerate(g: GameStructure, constraints: Sequence[FairnessConstraint],
                         pf, q0: Optional[int] = None,
                         max_profiles: int = DEFAULT_PROFILE_BOUND) -> Verdict:
    return synthesize(g, constraints, pf, q0, "enumerate", max_profiles)


def synthesize_fixpoint(g: GameStructure, constraints: Sequence[FairnessConstraint],
                        pf, q0: Optional[int] = None) -> Verdict:
    return synthesize(g, constraints, pf, q0, "fixpoint")


# -- model checking -----------------------------------------------------------------

def model_check(g: GameStructure, constraints: Sequence[FairnessConstraint],
                formula: Formula, q0: Optional[int] = None,
                engine: str = "enumerate",
                max_profiles: int = DEFAULT_PROFILE_BOUND,
                every_state: bool = True) -> Verdict:
    """Bottom-up labelling, one subformula at a time with every operand
    before its parent: boolean connectives as set operations, coalition
    subformulas decided at every state.  All states of one coalition
    subformula are labelled on one arena, which is dropped when the call
    returns, and every arena reads one label table, built once.
    Each coalition is one :func:`_label` call.  Every engine gives the
    same state sets, and one :func:`_verdict`, for the outermost
    coalition at ``q0``, builds the only lasso.

    With ``every_state`` false, a coalition under no other coalition is
    decided at ``q0`` alone: the boolean connectives above it are read at
    ``q0`` only.  A coalition under another one is still decided at every
    state, since its parent reads it there.  The verdict, witness,
    counterexample and reason are unchanged, and ``state_sets`` is left
    empty rather than partial."""
    _require_engine(engine)
    violations = check_fragment(formula, g.net)
    if violations:
        raise InputError("formula outside the checkable fragment: "
                         + "; ".join(violations))
    q0 = _start(g, q0)
    constraints = tuple(constraints)
    labels = _label_table(g, constraints)
    all_states = frozenset(range(len(g.states)))
    # the subformulas under some coalition, which reads them at every state
    inner = {format_formula(sub) for node in subformulas(formula)
             if isinstance(node, Coalition) for arg in node.args for sub in subformulas(arg)}
    state_sets: dict = {}
    root = Verdict(False)       # the outermost coalition's verdict, if any
    for node in reversed(list(subformulas(formula))):   # operands first
        key = format_formula(node)
        if key in state_sets:
            continue
        args = [state_sets[format_formula(arg)] for arg in operands(node)]
        if isinstance(node, Prop):
            result = frozenset(qi for qi in all_states if node.name in g.w(qi))
        elif isinstance(node, TrueConst):
            result = all_states
        elif isinstance(node, Not):
            result = all_states - args[0]
        elif isinstance(node, Or):
            result = args[0] | args[1]
        elif isinstance(node, And):
            result = args[0] & args[1]
        else:
            # a coalition: one arena for the objective, shared by all states
            game = _FairGame(g, constraints, PathObjective.from_state_sets(
                g, node.op, *args), labels)
            states = range(len(g.states)) if every_state or key in inner else [q0]
            result, witness = _label(game, q0, states, engine, max_profiles)
            if node is formula:     # the only verdict that is printed
                root = _verdict(game, q0, witness)
        state_sets[key] = result
    root.satisfied = q0 in state_sets[format_formula(formula)]
    if every_state:
        root.state_sets = {
            key: tuple(sorted((g.states[qi] for qi in states), key=marking_key))
            for key, states in sorted(state_sets.items())}
    return root


def _label_fixpoint(game: _FairGame, q0: int, states: Sequence[int]) -> tuple:
    """The states of ``states`` from which some memoryless profile wins on
    ``game``, and the flat witness found at ``q0``, or None when ``q0`` is
    lost.

    ``q0`` comes first, then the other states in their order.  A state is
    lost when the adversary wins from its root against users with every
    slot free, which one solve (:meth:`_FairGame.solve`) from the roots of
    all of ``states`` answers; for ``q0`` alone that solve is skipped, as
    the search's first node is the same solve from the same root.  The
    slot search runs at the first state still pending, and a witness it
    finds is checked exactly against every later pending state in one pass
    (:func:`_winners`), which retires the states it wins from.  So a state
    is searched only when no witness found at an earlier state wins there.
    Every bit is exact, and no lasso is built.
    """
    lost = set()
    if len(states) > 1:
        free = [None] * len(_slot_sizes(game.g))
        won, _ = game.solve(free, [game.start(qi) for qi in states])
        lost = {qi for qi, adversary in zip(states, won) if adversary}
    order = [q0] + [qi for qi in states if qi != q0]
    pending = [game.start(qi) for qi in order if qi not in lost]
    witnesses, winning = [], set()
    while pending:
        root = pending.pop(0)
        witness = _search(game, root[0])
        if witness is not None:
            won, pending = _winners(game, witness, pending)
            witnesses.append(witness)
            winning.update(node[0] for node in [root, *won])
    return frozenset(winning), witnesses[0] if q0 in winning else None


def check_net(net: NetSystem, formula: Formula, engine: str = "enumerate",
              single_user_simplification: bool = False,
              max_states: int = DEFAULT_STATE_BOUND,
              max_profiles: int = DEFAULT_PROFILE_BOUND,
              every_state: bool = True) -> tuple:
    """Convenience front door: build the game and fairness constraints,
    then model-check the formula at the initial state
    (:func:`model_check`, which reads ``every_state``)."""
    g = build_game(net, single_user_simplification=single_user_simplification,
                   max_states=max_states)
    constraints = build_fairness(net, g)
    verdict = model_check(g, constraints, formula, engine=engine,
                          max_profiles=max_profiles, every_state=every_state)
    return g, constraints, verdict


# -- strategy conversion -----------------------------------------------------------

def profile_from_net_strategies(g: GameStructure,
                                strategies: Iterable[NetStrategy]) -> GameProfile:
    """Net to game: pick the lexicographically least chosen transition per
    marking; empty choices become the idle move."""
    by_owner: dict = {}
    for strategy in strategies:
        if strategy.owner not in g.net.users:
            raise InputError(f"{strategy.owner!r} is not a user location")
        by_owner[strategy.owner] = strategy
        for m in strategy.choice:
            if m not in g.state_index:
                raise InputError(
                    f"strategy references unknown state {format_marking(m)}")
    moves = []
    for a, user in enumerate(g.net.users):
        strategy = by_owner.get(user)
        per_state = []
        for qi in range(len(g.states)):
            chosen = strategy.at(g.states[qi]) if strategy else frozenset()
            labels = g.moves[a][qi]
            if chosen:
                pick = min(chosen)
                if pick not in labels:
                    raise InputError(
                        f"strategy for {user} chooses {pick}, not enabled at "
                        f"{format_marking(g.states[qi])}")
                per_state.append(labels.index(pick))
            else:
                idle = g.idle_move(a, qi)
                if idle is None:
                    raise InputError(
                        f"user {user} must move at {format_marking(g.states[qi])} "
                        "(idle move removed by the single-user simplification)")
                per_state.append(idle)
        moves.append(tuple(per_state))
    return GameProfile(tuple(moves))


def net_strategies_from_profile(g: GameStructure, profile: GameProfile) -> tuple:
    """Game to net: singleton choice per marking, empty for idle moves."""
    validate_game_profile(g, profile)
    strategies = []
    for a, user in enumerate(g.net.users):
        choice = {}
        for qi, m in enumerate(g.states):
            label = g.move_label(a, qi, profile.move(a, qi))
            if label is not None:
                choice[m] = frozenset({label})
        strategies.append(NetStrategy(user, choice))
    return tuple(strategies)


# -- strategy files ---------------------------------------------------------------

def _profile_moves(g: GameStructure, profile: GameProfile):
    """``(user, marking text, transition or "pass")`` for every user, then
    every state, in canonical order, once ``profile`` is validated."""
    validate_game_profile(g, profile)
    for a, user in enumerate(g.net.users):
        for qi, m in enumerate(g.states):
            label = g.move_label(a, qi, profile.move(a, qi))
            yield user, format_marking(m), label if label is not None else "pass"


def _format_moves(moves: Iterable) -> str:
    """``strategy <user>: <marking> -> <transition|pass>`` lines, one per
    item of :func:`_profile_moves`."""
    return "\n".join(f"strategy {user}: {marking} -> {move}"
                     for user, marking, move in moves) + "\n"


def format_profile(g: GameStructure, profile: GameProfile) -> str:
    """``strategy <user>: <marking> -> <transition|pass>`` lines."""
    return _format_moves(_profile_moves(g, profile))


def parse_profile(g: GameStructure, text: str) -> GameProfile:
    moves = [[g.idle_move(a, qi) or 0 for qi in range(len(g.states))]
             for a in range(g.user_count)]
    first: dict = {}    # (user, state) -> the line that set its move
    for lineno, line in significant_lines(text):
        if not line.startswith("strategy "):
            raise InputError(f"strategy file error on line {lineno}")
        head, _, tail = line[len("strategy "):].partition(":")
        user = head.strip()
        if user not in g.net.users:
            raise InputError(f"unknown user {user!r} on line {lineno}")
        a = g.net.users.index(user)
        marking_text, _, move_text = tail.partition(" -> ")   # ids hold no space
        marking = parse_marking(marking_text)
        if marking not in g.state_index:
            raise InputError(
                f"unknown state {format_marking(marking)} on line {lineno}")
        qi = g.state_index[marking]
        if first.setdefault((a, qi), lineno) != lineno:
            raise InputError(f"repeated state {format_marking(marking)} for user {user} "
                             f"on line {lineno}, first set on line {first[a, qi]}")
        move = move_text.strip()
        labels = g.moves[a][qi]
        label = None if move == "pass" else move
        if label not in labels:
            raise InputError(f"move {move!r} not available on line {lineno}")
        moves[a][qi] = labels.index(label)
    return GameProfile(tuple(tuple(per) for per in moves))
