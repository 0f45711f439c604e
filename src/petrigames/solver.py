"""Memoryless strategy synthesis and ATL model checking on the game
structure.

Two engines answer the same question -- does the grand coalition have a
memoryless profile under which every fair computation satisfies the path
formula (and at least one fair computation exists)?

* ``synthesize_enumerate`` sweeps all profiles in canonical order and
  checks each one exactly; it is the correctness oracle.
* ``synthesize_fixpoint`` prunes the same search by solving the
  two-player fair game: a partial profile is abandoned as soon as the
  adversary (environment plus scheduler) can force a fair violating
  computation even against users with full memory.  Weak fairness makes
  this a generalized Buechi game, solved by the Emerson-Lei nested
  fixpoint on the (state, monitor) rows.  Complete survivors are checked
  exactly, so both engines return identical verdicts and witnesses
  wherever both run.

Both engines read one product of the game with a monitor automaton for
the path formula (2 states for G, 3 for U): ``_FairGame`` builds, lazily
and once, a row per (state, monitor) node listing the node each move
reaches, and plays the fair game on these rows.  ``model_check`` shares
one such arena among all the states it labels for a coalition.

Under ``enumerate`` and ``both``, ``model_check`` synthesizes at every
state.  Under ``fixpoint`` only the printed root verdict comes from a
full synthesis; every other state is decided exactly by the cheapest of
three answers: it lies in the adversary's full-memory winning region
(one fair game solve for all start states), an earlier witness wins
there, or a slot search run at that state.

Verification of one profile restricts the rows to the profile's user
moves, numbered as integers, and looks for a reachable strongly connected
component that contains a violating cycle satisfying every weak fairness
constraint (disabled at some position or taken at some step).  Weak
fairness makes this a generalized Buechi condition, so SCC inspection is
exact: each step carries the arena's constraint mask, and a component
holds a fair cycle iff the OR of its internal steps' masks has every bit.

Every entry point resolves its start state ``q0`` once, with ``_start``.
"""

from __future__ import annotations

import itertools
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
    canonical_lasso,
    check_fragment,
    format_formula,
    holds_in,
)
from .game import (
    FairnessConstraint,
    GameStructure,
    LassoComputation,
    build_fairness,
    build_game,
)
from .nets import DEFAULT_STATE_BOUND, NetSystem, format_marking, marking_key, parse_marking
from .unfold import BranchingProcess, NetStrategy, cut_step, enabled_events, \
    events_before_cut, initial_cut, interleavings

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
    """The product arena of ``pf``: a path formula, an objective, or a
    :class:`_FairGame` already built on ``g`` and ``constraints``."""
    if isinstance(pf, _FairGame):
        return pf
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
            if not 0 <= j < g.d(a, qi):
                raise InputError(
                    f"move {j} out of range for user {g.player_names[a]} at "
                    f"{format_marking(g.states[qi])}")


def profile_space(g: GameStructure) -> int:
    space = 1
    for a in range(g.user_count):
        for qi in range(len(g.states)):
            space *= g.d(a, qi)
    return space


def iter_profiles(g: GameStructure):
    """All profiles in canonical order: users major, states minor, move
    indices ascending."""
    ranges = [range(g.d(a, qi))
              for a in range(g.user_count) for qi in range(len(g.states))]
    for flat in itertools.product(*ranges):
        yield _profile(g, flat)


def _profile(g: GameStructure, flat: tuple) -> GameProfile:
    """The profile in which user ``a`` plays ``flat[a * n + qi]`` at state
    ``qi``, for ``n`` states."""
    n = len(g.states)
    return GameProfile(tuple(flat[a * n:(a + 1) * n] for a in range(g.user_count)))


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
    state_sets: dict = field(default_factory=dict)


class VerifyOutcome:
    __slots__ = ("ok", "counterexample", "reason")

    def __init__(self, ok: bool, counterexample: Optional[LassoComputation],
                 reason: str):
        self.ok = ok
        self.counterexample = counterexample
        self.reason = reason


def _edge_taken(g: GameStructure, fc: FairnessConstraint,
                qi: int, scheduled: int, j: int) -> bool:
    if fc.player == g.scheduler_player:
        return scheduled in fc.at(qi)
    return scheduled == fc.player and j in fc.at(qi)


def _profile_vector(g: GameStructure, profile: GameProfile,
                    qi: int, scheduled: int, j: int) -> tuple:
    vec = []
    for a in range(g.user_count):
        vec.append(j if a == scheduled else profile.move(a, qi))
    vec.append(j if scheduled == g.env_player else 0)
    vec.append(scheduled)
    return tuple(vec)


def verify_profile(g: GameStructure, constraints: Sequence[FairnessConstraint],
                   profile: GameProfile, pf, q0: Optional[int] = None,
                   ) -> VerifyOutcome:
    """Exact check of one profile: true iff fair computations from q0 exist
    and every one of them satisfies the path formula.

    On failure returns a fair violating lasso, or a reason when the
    profile admits no fair computation at all.  ``pf`` may also be a
    :class:`_FairGame` on ``g``, whose rows are then read, not rebuilt.
    :func:`_refute` decides on integer-numbered rows; the
    ``(target, player, move)`` edges the lasso needs are rebuilt only for
    a refuted profile.
    """
    validate_game_profile(g, profile)
    q0 = _start(g, q0)
    game = _arena(g, constraints, pf)
    refutation = _refute(game, profile, game.start(q0))
    if refutation is None:
        return VerifyOutcome(True, None, "")
    rows, root, component = refutation
    if component is None:
        return VerifyOutcome(
            False, None, "profile admits no fair computation from the initial state")
    # the lasso's shortest paths break ties by edge order
    adjacency = {}
    for qi, mon in rows:
        row = game.row(qi, mon)
        edges = [(row[a][moves[qi]], a, moves[qi])
                 for a, moves in enumerate(profile.moves)]
        edges.extend((target, g.env_player, j)
                     for j, target in enumerate(row[g.env_player]))
        adjacency[(qi, mon)] = sorted(edges)
    lasso = _extract_lasso(g, profile, game.constraints, adjacency, root, component)
    return VerifyOutcome(False, lasso, "fair violating computation found")


def _refute(game: _FairGame, profile: GameProfile, root: tuple) -> Optional[tuple]:
    """The answer-only part of :func:`verify_profile`: None when the profile
    wins from the row ``root``, otherwise ``(rows, root, component)``: the
    rows the profile reaches, and the first fair violating strongly
    connected component (the one holding the least row) as a frozenset of
    rows, or None in its place when the profile admits no fair
    computation.  Builds no lasso.

    The reached rows are numbered from 0 in discovery order, each with its
    ``(target, mask)`` edges: each user's profile move, then every
    environment move, masked by :meth:`_FairGame.labels`.  Every mask has
    the top bit, so a component holds a fair cycle iff the OR of its
    internal edges' masks has every bit: a constraint disabled at one of
    its rows is met by that row's internal edges, and a single row with no
    self-loop has none."""
    env = game.g.env_player
    local = {root: 0}
    rows = [root]
    succ = []
    for qi, mon in rows:        # grows while it is read
        row, labels = game.row(qi, mon), game.labels(qi)
        edges = [(row[a][moves[qi]], labels[a][moves[qi]])
                 for a, moves in enumerate(profile.moves)]
        edges.extend(zip(row[env], labels[env]))
        out = []
        for target, mask in edges:
            t = local.get(target)
            if t is None:
                t = local[target] = len(rows)
                rows.append(target)
            out.append((t, mask))
        succ.append(out)
    component = _strongly_connected_components(succ)
    met = [0] * len(succ)       # per component, the OR of its internal edges
    for v, edges in enumerate(succ):
        c = component[v]
        for t, mask in edges:
            if component[t] == c:
                met[c] |= mask
    first, any_fair = None, False
    for v, node in enumerate(rows):
        if met[component[v]] != game._goals:
            continue
        if node[1] not in game._violating:
            any_fair = True
        elif first is None or node < rows[first]:
            first = v
    if first is not None:
        c = component[first]
        return rows, root, frozenset(
            node for node, cv in zip(rows, component) if cv == c)
    return None if any_fair else (rows, root, None)


def _strongly_connected_components(succ: Sequence) -> list:
    """Iterative Tarjan on the nodes ``0..n-1`` of ``succ``, all reachable
    from node 0, where ``succ[v]`` lists ``(target, mask)`` edges.  Returns
    every node's component number, numbered in the order found."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    component = [-1] * n        # -1 while unvisited or on the stack
    index[0] = 0
    stack, work = [0], [(0, iter(succ[0]))]
    counter, found = 1, 0
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


def _extract_lasso(g: GameStructure, profile: GameProfile,
                   constraints: Sequence[FairnessConstraint],
                   adjacency: Mapping, root, component: frozenset
                   ) -> LassoComputation:
    """Deterministic counterexample: shortest path to the component, then a
    tour visiting a witness (disabled position or taken edge) for every
    constraint, closed back to its anchor."""

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
    for fc in constraints:
        if any(not fc.enabled(n[0]) for n in component):
            segment = bfs(pos, lambda n: not fc.enabled(n[0]), allowed=component)
            tour.extend(segment)
            pos = segment[-1][1][0] if segment else pos
            continue
        taken_sources = {
            n for n in component
            if any(t in component and _edge_taken(g, fc, n[0], a, j)
                   for t, a, j in adjacency[n])}
        segment = bfs(pos, lambda n: n in taken_sources, allowed=component)
        tour.extend(segment)
        pos = segment[-1][1][0] if segment else pos
        edge = next(e for e in adjacency[pos]
                    if e[0] in component and _edge_taken(g, fc, pos[0], e[1], e[2]))
        tour.append((pos, edge))
        pos = edge[0]
    if pos != anchor or not tour:
        if not tour and pos == anchor:
            edge = next(e for e in adjacency[anchor] if e[0] in component)
            tour.append((anchor, edge))
            pos = edge[0]
        tour.extend(bfs(pos, lambda n: n == anchor, allowed=component))

    def steps(edge_list):
        return tuple((node[0], _profile_vector(g, profile, node[0], a, j))
                     for node, (target, a, j) in edge_list)

    return LassoComputation(steps(prefix_edges), steps(tour))


# -- enumerative engine ---------------------------------------------------------

def synthesize_enumerate(g: GameStructure, constraints: Sequence[FairnessConstraint],
                         pf, q0: Optional[int] = None,
                         max_profiles: int = DEFAULT_PROFILE_BOUND) -> Verdict:
    """Try every profile in canonical order on one arena; the first winning
    one is the witness.  Unsatisfied verdicts carry the last profile's
    counterexample, the only lasso built."""
    space = profile_space(g)
    if space > max_profiles:
        raise BoundExceeded(
            f"profile space of size {space} exceeds the enumeration bound "
            f"{max_profiles}; use the fixpoint engine", max_profiles)
    q0 = _start(g, q0)
    game = _arena(g, constraints, pf)
    root = game.start(q0)
    for profile in iter_profiles(g):
        if _refute(game, profile, root) is None:
            return Verdict(True, witness=profile)
    # every user has a move at every state, so the sweep saw a profile
    last = verify_profile(g, constraints, profile, game, q0)
    return Verdict(False, counterexample=last.counterexample, reason=last.reason)


# -- fixed-point engine -----------------------------------------------------------

class _FairGame:
    """The (state, monitor) product of one objective, and its fair game as
    an arena shared by every slot assignment and every start state.

    :meth:`row` lists, once per ``(qi, mon)``, the ``(qj, mon')`` each move
    of each user and of the environment reaches, and :meth:`labels`, once
    per ``qi``, the weak fairness constraints each move meets (disabled at
    ``qi``, or taken by the step), as a bitmask that depends only on the
    player, ``qi`` and the move.  This one label table serves both readers:
    :func:`_refute` restricts the rows to one profile and tests a
    component's masks, and the game is played on the same rows.  At a row
    the adversary (scheduler and environment) picks one environment move,
    or a user: that user's fixed move, or any of its moves while its slot
    is free, since the user chooses.  The monitor is eventually constant
    on a play, so "the monitor violates" is folded into every constraint:
    the adversary wins by forcing a play that meets each constraint
    infinitely often from violating rows, a generalized Buechi condition
    solved by :func:`_adversary_region`.  The rows' moves and labels are
    built once, lazily from each new start state.
    """

    def __init__(self, g: GameStructure, constraints: Sequence[FairnessConstraint],
                 objective: PathObjective):
        self.g = g
        self.constraints = tuple(constraints)
        self.objective = objective
        self._violating = objective.violating_monitors()
        self._goals = (2 << len(self.constraints)) - 1   # all mask bits
        self._rows: dict = {}       # (qi, mon) -> per player, per move (qj, mon')
        self._labels: dict = {}     # qi -> per player, per move constraint mask
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

    def labels(self, qi: int) -> tuple:
        """For each user, then the environment, the mask of the weak
        fairness constraints each of its moves at ``qi`` meets (bit ``i``:
        constraint ``i`` is disabled at ``qi`` or taken by the move), with
        the top bit always set; built once per state."""
        labels = self._labels.get(qi)
        if labels is None:
            g = self.g
            top = 1 << len(self.constraints)
            labels = self._labels[qi] = tuple(
                tuple(top | sum(1 << i for i, fc in enumerate(self.constraints)
                                if not fc.enabled(qi) or _edge_taken(g, fc, qi, a, j))
                      for j in range(len(per_state[qi])))
                for a, per_state in enumerate(g.successors))
        return labels

    def _build_options(self, node: tuple) -> tuple:
        """The adversary's options at a row, built once: ``choices``, the
        slot and ``(target, mask)`` moves of each user with more than one
        move, and ``static``, one-move options for the other users and for
        every environment move.  The masks are :meth:`labels`, whose top
        bit stands for the monitor alone; a step from a row whose monitor
        does not violate meets nothing."""
        qi, mon = node
        g = self.g
        labels = self.labels(qi)
        violating = mon in self._violating
        choices, static = [], []
        for a, (targets, masks) in enumerate(zip(self.row(qi, mon), labels)):
            moves = tuple((target, mask if violating else 0)
                          for target, mask in zip(targets, masks))
            if a != g.env_player and len(moves) > 1:
                choices.append((a * len(g.states) + qi, moves))
            else:
                static.extend((move,) for move in moves)
        options = self._options[node] = (choices, static)
        return options

    def _walk(self, fixed: Sequence, roots: Sequence) -> list:
        """The part of the arena masked by ``fixed`` that ``roots`` reach,
        renumbered from 0 in discovery order (the roots first): each row's
        options as lists of ``(target, mask)``, as
        :func:`_adversary_region` reads them."""
        local = {root: i for i, root in enumerate(roots)}
        order = list(roots)
        options = []
        for node in order:
            choices, static = self._options.get(node) or self._build_options(node)
            row = [moves if fixed[slot] is None else (moves[fixed[slot]],)
                   for slot, moves in choices]
            row.extend(static)
            renumbered = []
            for moves in row:
                option = []
                for target, mask in moves:
                    i = local.get(target)
                    if i is None:
                        i = local[target] = len(order)
                        order.append(target)
                    option.append((i, mask))
                renumbered.append(option)
            options.append(renumbered)
        return options

    def solve(self, fixed: Sequence, root: tuple) -> bool:
        """True iff the adversary wins from the row ``root`` when user
        ``a`` plays move ``fixed[a * len(g.states) + qi]`` at state ``qi``
        wherever that is not None (a free slot lets the user choose at each
        visit, with unrestricted memory)."""
        return _adversary_region(self._walk(fixed, [root]), self._goals, watch=0)[0]

    def region(self) -> frozenset:
        """The states whose root lies in the adversary's winning region
        with every slot free, from one solve over the arena all roots
        reach: there the adversary beats users with unrestricted memory,
        so no memoryless profile wins."""
        g = self.g
        n = len(g.states)
        won = _adversary_region(self._walk([None] * (g.user_count * n),
                                           [self.start(qi) for qi in range(n)]),
                                self._goals)
        return frozenset(qi for qi in range(n) if won[qi])


def _adversary_region(options: Sequence, goals: int,
                      watch: Optional[int] = None) -> list:
    """The adversary's winning region, as a membership list, for 'meet
    every constraint bit of ``goals`` infinitely often'.  The adversary
    picks an option at each row and the users pick its step, so a row
    forces a set when some option has every step in it.

    Emerson-Lei nested fixpoint: the greatest ``Z`` such that every row of
    ``Z`` forces, for each constraint, a step meeting it into ``Z``,
    possibly after forced steps within ``Z``.  The least fixpoints of all
    constraints are computed together, one bit each: ``forced[v]`` holds
    the constraints row ``v`` can force so far.  ``Z`` shrinks to the rows
    forcing every constraint until it is stable.  With ``watch``, the loop
    stops as soon as that row leaves ``Z``; the list is then exact only at
    ``watch``."""
    n = len(options)
    preds: list = [[] for _ in range(n)]
    for v, row in enumerate(options):
        for option in row:
            for t, _ in option:
                preds[t].append(v)
    alive = [True] * n
    while True:
        forced = [0] * n
        todo = [v for v in range(n) if alive[v]]
        queued = alive[:]
        while todo:
            v = todo.pop()
            queued[v] = False
            value = 0
            for option in options[v]:
                both = goals
                for t, mask in option:
                    both &= forced[t] | mask if alive[t] else 0
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
        if kept == alive or watch is not None and not kept[watch]:
            return kept
        alive = kept


def synthesize_fixpoint(g: GameStructure, constraints: Sequence[FairnessConstraint],
                        pf, q0: Optional[int] = None) -> Verdict:
    """Fair-game-pruned search over profiles (:func:`_search`).  An
    unsatisfied verdict carries the canonically first profile's
    counterexample.

    ``pf`` may also be a :class:`_FairGame` built on ``g`` and
    ``constraints``; its arena is then grown and reused, not rebuilt.
    """
    q0 = _start(g, q0)
    game = _arena(g, constraints, pf)
    witness = _search(game, q0)
    if witness is not None:
        return Verdict(True, witness=witness)
    fallback = verify_profile(g, game.constraints, next(iter_profiles(g)),
                              game, q0)
    return Verdict(False, counterexample=fallback.counterexample,
                   reason="adversary defeats every memoryless profile "
                          "(fixed-point search exhausted)")


def _search(game: _FairGame, q0: int) -> Optional[GameProfile]:
    """The canonically first memoryless profile that wins from ``q0``, or
    None.

    A depth-first sweep fixes user moves slot by slot in canonical order;
    a branch is cut as soon as the adversary wins the fair game against
    users with unrestricted memory on the remaining slots (sound: the
    restriction only weakens the users).  Complete assignments are
    checked exactly, including non-vacuity, so the witness matches the
    enumerative engine's.  The sweep keeps its own slot stack, so its
    depth is not bounded by recursion.
    """
    g = game.g
    n = len(g.states)
    root = game.start(q0)
    # slot a * n + qi holds user a's move at state qi; None while free
    sizes = [g.d(a, qi) for a in range(g.user_count) for qi in range(n)]
    slots = [slot for slot, size in enumerate(sizes) if size > 1]
    fixed = [None] * len(sizes)
    depth = 0     # slots[:depth] are fixed
    while True:
        if not game.solve(fixed, root):
            if depth < len(slots):
                fixed[slots[depth]] = 0
                depth += 1
                continue
            # the leaf solve is exact on a full profile, so the exact check
            # on the same arena adds only non-vacuity (a fair computation)
            profile = _profile(g, tuple(j or 0 for j in fixed))
            if _refute(game, profile, root) is None:
                return profile
        # backtrack to the deepest slot with an untried move
        while depth:
            depth -= 1
            slot = slots[depth]
            if fixed[slot] + 1 < sizes[slot]:
                fixed[slot] += 1
                depth += 1
                break
            fixed[slot] = None
        else:
            return None


ENGINES = ("enumerate", "fixpoint", "both")


def synthesize(g: GameStructure, constraints: Sequence[FairnessConstraint], pf,
               q0: Optional[int] = None, engine: str = "enumerate",
               max_profiles: int = DEFAULT_PROFILE_BOUND) -> Verdict:
    if engine == "enumerate":
        return synthesize_enumerate(g, constraints, pf, q0, max_profiles)
    if engine == "fixpoint":
        return synthesize_fixpoint(g, constraints, pf, q0)
    if engine == "both":
        left = synthesize_enumerate(g, constraints, pf, q0, max_profiles)
        right = synthesize_fixpoint(g, constraints, pf, q0)
        if left.satisfied != right.satisfied:
            raise EngineDisagreement(
                f"engines disagree: enumerate={left.satisfied} "
                f"fixpoint={right.satisfied}")
        if left.witness != right.witness:
            raise EngineDisagreement("engines disagree on the witness profile")
        return left
    raise InputError(f"unknown engine {engine!r}")


# -- model checking -----------------------------------------------------------------

def model_check(g: GameStructure, constraints: Sequence[FairnessConstraint],
                formula: Formula, q0: Optional[int] = None,
                engine: str = "enumerate",
                max_profiles: int = DEFAULT_PROFILE_BOUND) -> Verdict:
    """Bottom-up labelling: boolean connectives as set operations, coalition
    subformulas decided at every state.  All states of one coalition
    subformula are labelled on one arena, which is dropped when the call
    returns.  ``enumerate`` and ``both`` run a synthesis at every state;
    ``fixpoint`` runs one at ``q0`` for the outermost coalition, whose
    verdict is returned, and labels the rest with
    :func:`_label_fixpoint`.  Every engine gives the same state sets."""
    violations = check_fragment(formula, g.net)
    if violations:
        raise InputError("formula outside the checkable fragment: "
                         + "; ".join(violations))
    q0 = _start(g, q0)
    constraints = tuple(constraints)
    all_states = frozenset(range(len(g.states)))
    state_sets: dict = {}
    verdict_cache: dict = {}

    def states_of(node) -> frozenset:
        key = format_formula(node)
        if key in state_sets:
            return state_sets[key]
        if isinstance(node, Prop):
            result = frozenset(qi for qi in all_states if node.name in g.w(qi))
        elif isinstance(node, TrueConst):
            result = all_states
        elif isinstance(node, Not):
            result = all_states - states_of(node.sub)
        elif isinstance(node, Or):
            result = states_of(node.left) | states_of(node.right)
        elif isinstance(node, And):
            result = states_of(node.left) & states_of(node.right)
        elif isinstance(node, Coalition):
            left = states_of(node.args[0])
            right = states_of(node.args[1]) if node.op == "U" else None
            # one arena for the objective, shared by every state labelled
            game = _FairGame(g, constraints, PathObjective.from_state_sets(
                g, node.op, left, right))
            if engine == "fixpoint":
                root = None
                if node is formula:     # the only verdict that is printed
                    root = verdict_cache[(key, q0)] = synthesize_fixpoint(
                        g, constraints, game, q0)
                result = _label_fixpoint(game, q0, root)
            else:
                winning = set()
                for qi in sorted(all_states):
                    verdict = synthesize(g, constraints, game, qi,
                                         engine=engine, max_profiles=max_profiles)
                    verdict_cache[(key, qi)] = verdict
                    if verdict.satisfied:
                        winning.add(qi)
                result = frozenset(winning)
        else:
            raise InputError(f"not a formula node: {node!r}")
        state_sets[key] = result
        return result

    holds = states_of(formula)
    verdict = Verdict(q0 in holds)
    if isinstance(formula, Coalition):
        root = verdict_cache[(format_formula(formula), q0)]
        verdict.witness = root.witness
        verdict.counterexample = root.counterexample
        verdict.reason = root.reason
    verdict.state_sets = {
        key: tuple(sorted((g.states[qi] for qi in states), key=marking_key))
        for key, states in sorted(state_sets.items())}
    return verdict


def _label_fixpoint(game: _FairGame, q0: int, root: Optional[Verdict]) -> frozenset:
    """The states from which some memoryless profile wins on ``game``.

    ``q0`` comes first, then the other states in sorted order; ``root``,
    when given, is the verdict already found at ``q0``.  A state in the
    all-states region (:meth:`_FairGame.region`) is lost.  Otherwise it is
    won if a witness found so far, tried in the order found, passes the
    exact profile check there; only when none does is the slot search run,
    and its witness kept.  Every bit is exact, and no lasso is built.
    """
    lost = game.region()
    witnesses, winning = [], set()
    todo = [qi for qi in range(len(game.g.states)) if qi != q0]
    if root is None:
        todo.insert(0, q0)
    elif root.satisfied:
        witnesses.append(root.witness)
        winning.add(q0)
    for qi in todo:
        if qi in lost:
            continue
        root = game.start(qi)
        if not any(_refute(game, w, root) is None for w in witnesses):
            witness = _search(game, qi)
            if witness is None:
                continue
            witnesses.append(witness)
        winning.add(qi)
    return frozenset(winning)


def check_net(net: NetSystem, formula: Formula, engine: str = "enumerate",
              single_user_simplification: bool = False,
              max_states: int = DEFAULT_STATE_BOUND,
              max_profiles: int = DEFAULT_PROFILE_BOUND) -> tuple:
    """Convenience front door: build the game and fairness constraints,
    then model-check the formula at the initial state."""
    g = build_game(net, single_user_simplification=single_user_simplification,
                   max_states=max_states)
    constraints = build_fairness(net, g)
    verdict = model_check(g, constraints, formula, engine=engine,
                          max_profiles=max_profiles)
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


def full_memory_from_cut_strategy(bp: BranchingProcess, g: GameStructure,
                                  owner: str,
                                  cut_choice: Mapping) -> dict:
    """Cut-keyed to prefix-keyed conversion over a bounded prefix.

    For every B-cut of the prefix, all interleavings of its past events
    yield state sequences; each sequence (up to stutter removal) is mapped
    to one transition arbitrarily-but-canonically chosen from the cut's
    choice set.  Conflicting assignments keep the least transition.
    """
    if owner not in g.net.users:
        raise InputError(f"{owner!r} is not a user location")
    known_cuts = set()
    queue = [initial_cut(bp)]
    while queue:
        cut = queue.pop()
        if cut in known_cuts:
            continue
        known_cuts.add(cut)
        for eid in enabled_events(bp, cut):
            queue.append(cut_step(bp, cut, eid))
    for cut in cut_choice:
        if frozenset(cut) not in known_cuts:
            raise InputError("cut-keyed strategy references an unknown cut")

    mapping: dict = {}
    for cut in sorted(known_cuts, key=lambda c: tuple(sorted(c))):
        chosen = sorted(cut_choice.get(cut, cut_choice.get(frozenset(cut), ())))
        value = chosen[0] if chosen else None
        past = sorted(events_before_cut(bp, cut))
        for extension in interleavings(bp, past):
            seq = [bp.mu(initial_cut(bp))]
            walking = initial_cut(bp)
            for eid in extension:
                walking = cut_step(bp, walking, eid)
                seq.append(bp.mu(walking))
            key = canonical_lasso(seq, ())[0]
            if key not in mapping or _prefer(value, mapping[key]):
                mapping[key] = value
    return mapping


def _prefer(new, old) -> bool:
    if old is None:
        return new is not None
    if new is None:
        return False
    return new < old


# -- strategy files ---------------------------------------------------------------

def _profile_moves(g: GameStructure, profile: GameProfile):
    """``(user, marking text, transition or "pass")`` for every user, then
    every state, in canonical order."""
    for a, user in enumerate(g.net.users):
        for qi, m in enumerate(g.states):
            label = g.move_label(a, qi, profile.move(a, qi))
            yield user, format_marking(m), label if label is not None else "pass"


def format_profile(g: GameStructure, profile: GameProfile) -> str:
    """``strategy <user>: <marking> -> <transition|pass>`` lines."""
    return "\n".join(f"strategy {user}: {marking} -> {move}"
                     for user, marking, move in _profile_moves(g, profile)) + "\n"


def parse_profile(g: GameStructure, text: str) -> GameProfile:
    moves = [[None] * len(g.states) for _ in range(g.user_count)]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("strategy "):
            raise InputError(f"strategy file error on line {lineno}")
        head, _, tail = line[len("strategy "):].partition(":")
        user = head.strip()
        if user not in g.net.users:
            raise InputError(f"unknown user {user!r} on line {lineno}")
        a = g.net.users.index(user)
        marking_text, _, move_text = tail.partition("->")
        marking = parse_marking(marking_text)
        if marking not in g.state_index:
            raise InputError(
                f"unknown state {format_marking(marking)} on line {lineno}")
        qi = g.state_index[marking]
        move = move_text.strip()
        labels = g.moves[a][qi]
        label = None if move == "pass" else move
        if label not in labels:
            raise InputError(f"move {move!r} not available on line {lineno}")
        moves[a][qi] = labels.index(label)
    for a in range(g.user_count):
        for qi in range(len(g.states)):
            if moves[a][qi] is None:
                idle = g.idle_move(a, qi)
                moves[a][qi] = idle if idle is not None else 0
    return GameProfile(tuple(tuple(per) for per in moves))
