"""Branching processes of a net system: prefixes of the unfolding, B-cuts,
runs, plays, and the validity/consistency checks plays must satisfy.

Occurrence nets are built in one place, :class:`_OccurrenceNet`, for both
the unfolding prefix and a play's run.  Identifiers are deterministic:
the k-th occurrence of place ``p`` is the condition ``p.k`` and the k-th
occurrence of transition ``t`` is the event ``t.k``, counting creation
order; every event records its causal depth.  :func:`unfold_prefix`
keeps the co-relation of its conditions (which pairs are concurrent) as
bitmasks and extends the prefix layer by layer with the co-sets that
match a transition's pre-set; :func:`materialise_play` fires a play's
transitions through the net's firing kernel.  :func:`interleavings`
lists the orders of a set of events that respect causality.

Infinite plays are kept finite as a prefix of single- or multi-event steps
plus a lasso: a segment of transitions repeated forever at the marking
level.  Validation materialises the prefix and two passes of the lasso,
which is enough to decide every per-cycle condition exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BoundExceeded, InputError, PreconditionError
from .nets import (
    DEFAULT_STATE_BOUND,
    Marking,
    NetSystem,
    enabled_set,
    format_marking,
    require_contact_free,
    require_valid,
)

DEFAULT_PREFIX_BOUND = 20_000


@dataclass(frozen=True)
class Condition:
    cid: str
    label: str                 # place
    producer: Optional[str]    # event that created it; None for minimal conditions


@dataclass(frozen=True)
class Event:
    eid: str
    label: str                 # transition
    pre: frozenset
    post: frozenset
    depth: int                 # length of the longest event chain ending here


class BranchingProcess:
    """An immutable branching-process prefix with its labelling."""

    def __init__(self, net: NetSystem, conditions: Mapping[str, Condition],
                 events: Mapping[str, Event], minimal: Iterable[str]):
        self.net = net
        self.conditions = dict(conditions)
        self.events = dict(events)
        self.minimal = frozenset(minimal)
        consumers: dict[str, set] = {c: set() for c in self.conditions}
        for e in self.events.values():
            for c in e.pre:
                consumers[c].add(e.eid)
        self.consumers = {c: frozenset(s) for c, s in consumers.items()}
        self._event_past_cache: dict[str, frozenset] = {}

    # -- basic views ------------------------------------------------------

    def __contains__(self, x: str) -> bool:
        return x in self.conditions or x in self.events

    def mu(self, cut: Iterable[str]) -> Marking:
        """Marking corresponding to a set of conditions."""
        return frozenset(self.conditions[c].label for c in cut)

    # -- causal structure --------------------------------------------------

    def event_past(self, x: str) -> frozenset:
        """All events e with e F* x (including x itself when x is an event)."""
        cached = self._event_past_cache.get(x)
        if cached is not None:
            return cached
        acc: set = set()
        stack = [x]
        while stack:
            y = stack.pop()
            if y in self.events:
                if y in acc:
                    continue
                acc.add(y)
                stack.extend(self.events[y].pre)
            else:
                producer = self.conditions[y].producer
                if producer is not None and producer not in acc:
                    stack.append(producer)
        result = frozenset(acc)
        self._event_past_cache[x] = result
        return result

    def causally_le(self, x: str, y: str) -> bool:
        """x F* y."""
        if x == y:
            return True
        if x in self.events:
            return x in self.event_past(y)
        # x is a condition: x F+ y iff one of its consumers lies F* below y.
        return any(e in self.event_past(y) for e in self.consumers[x])

    def in_conflict(self, x: str, y: str) -> bool:
        """x natural-sign y: two distinct events in their pasts share a precondition."""
        past_x = self.event_past(x)
        past_y = self.event_past(y)
        for e1 in past_x:
            pre1 = self.events[e1].pre
            for e2 in past_y:
                if e1 != e2 and pre1 & self.events[e2].pre:
                    return True
        return False


class _OccurrenceNet:
    """An occurrence net under construction: it numbers conditions ``p.k``
    and events ``t.k`` (a valid net never names a place and a transition
    alike) and gives every event its causal depth."""

    def __init__(self, net: NetSystem):
        self.net = net
        self.conditions: dict[str, Condition] = {}
        self.events: dict[str, Event] = {}
        self._count: dict[str, int] = {}
        self.minimal = [self._condition(p, None) for p in sorted(net.initial)]

    def _name(self, label: str) -> str:
        k = self._count[label] = self._count.get(label, 0) + 1
        return f"{label}.{k}"

    def _condition(self, place: str, producer: Optional[str]) -> str:
        cid = self._name(place)
        self.conditions[cid] = Condition(cid, place, producer)
        return cid

    def event(self, t: str, pre: frozenset) -> Event:
        """Add the occurrence of ``t`` that consumes ``pre``, with one new
        condition per output place."""
        eid = self._name(t)
        producers = (self.conditions[c].producer for c in pre)
        depth = 1 + max((self.events[e].depth for e in producers if e), default=0)
        post = frozenset(self._condition(p, eid) for p in sorted(self.net.post(t)))
        event = self.events[eid] = Event(eid, t, pre, post, depth)
        return event

    def process(self) -> BranchingProcess:
        return BranchingProcess(self.net, self.conditions, self.events, self.minimal)


def unfold_prefix(net: NetSystem, depth: int,
                  max_size: int = DEFAULT_PREFIX_BOUND,
                  max_states: int = DEFAULT_STATE_BOUND) -> BranchingProcess:
    """The prefix of the unfolding containing all events of causal depth
    <= ``depth`` (and their conditions); the contact-freeness check that
    precedes it explores at most ``max_states`` markings.

    Layer k adds, in ``(t, sorted pre-set)`` order, an event for every
    co-set labelled by some ``pre(t)`` that has none yet; such a co-set
    holds a condition of layer k - 1, so the search starts from those.
    """
    require_contact_free(net, max_states=max_states)
    if depth < 0:
        raise InputError("depth must be >= 0")
    occ = _OccurrenceNet(net)
    # with one input place per transition every co-set is a single
    # condition, and the co-relation is left empty
    pairs = any(len(net.pre(t)) > 1 for t in net.transitions)
    bit: dict[str, int] = {}       # condition -> its bit in the masks below
    co: list = []                  # co[bit[c]]: mask of the conditions concurrent with c
    pools: dict[str, list] = {}    # place -> the conditions it labels

    def add_conditions(cids: list, concurrent: int) -> None:
        # new pairwise concurrent conditions, concurrent with ``concurrent``
        first = len(co)
        siblings = ((1 << len(cids)) - 1) << first if pairs else 0
        for i, c in enumerate(cids, start=first):
            bit[c] = i
            co.append(concurrent | (siblings & ~(1 << i)))
            pools.setdefault(occ.conditions[c].label, []).append(c)
        bits = bin(concurrent)[:1:-1]     # bit i of ``concurrent`` is bits[i]
        i = bits.find("1")
        while i >= 0:
            co[i] |= siblings
            i = bits.find("1", i + 1)

    add_conditions(occ.minimal, 0)
    fresh = occ.minimal
    for _ in range(depth):
        found = set()
        for c in fresh:
            place = occ.conditions[c].label
            for t in net.post(place):
                partial = [((c,), co[bit[c]])]
                for p in sorted(net.pre(t) - {place}):
                    partial = [(chosen + (d,), allowed & co[bit[d]])
                               for chosen, allowed in partial
                               for d in pools.get(p, ()) if allowed >> bit[d] & 1]
                found.update((t, tuple(sorted(chosen))) for chosen, _ in partial)
        fresh = []
        for t, pre in sorted(found):
            event = occ.event(t, frozenset(pre))
            if len(occ.conditions) + len(occ.events) > max_size:
                raise BoundExceeded(
                    f"unfolding prefix exceeds {max_size} elements", max_size)
            concurrent = -1               # all ones
            for c in pre:
                concurrent &= co[bit[c]]
            post = sorted(event.post)
            add_conditions(post, concurrent)
            fresh.extend(post)
    return occ.process()


def interleavings(bp: BranchingProcess, events: Iterable[str]):
    """Every order of ``events`` that puts each event after its causes
    among them, lexicographically by event id.  A loop, so a long causal
    chain needs no deep recursion."""
    items = sorted(events)
    causes = {e: bp.event_past(e).intersection(items) - {e} for e in items}
    order: list = []
    placed: set = set()
    stack = [iter(items)]       # per position of ``order``: the items left to try
    while stack:
        for e in stack[-1]:
            if e not in placed and causes[e] <= placed:
                order.append(e)
                placed.add(e)
                stack.append(iter(items))
                break
        else:
            if len(order) == len(items):
                yield tuple(order)
            stack.pop()
            if order:
                placed.discard(order.pop())


def relation_query(bp: BranchingProcess, x: str, y: str) -> str:
    """Exactly one of: equal, causal_le, causal_ge, conflict, concurrent."""
    for z in (x, y):
        if z not in bp:
            raise InputError(f"unknown element {z!r}")
    if x == y:
        return "equal"
    if bp.causally_le(x, y):
        return "causal_le"
    if bp.causally_le(y, x):
        return "causal_ge"
    if bp.in_conflict(x, y):
        return "conflict"
    return "concurrent"


# -- B-cuts ----------------------------------------------------------------

def initial_cut(bp: BranchingProcess) -> frozenset:
    return bp.minimal


def is_cut(bp: BranchingProcess, conds: Iterable[str]) -> bool:
    """Pairwise concurrent and maximal among the prefix's conditions."""
    conds = frozenset(conds)
    if not conds or any(c not in bp.conditions for c in conds):
        return False
    members = sorted(conds)
    for a, b in itertools.combinations(members, 2):
        if relation_query(bp, a, b) != "concurrent":
            return False
    for other in bp.conditions:
        if other in conds:
            continue
        if all(relation_query(bp, other, c) == "concurrent" for c in members):
            return False
    return True


def enabled_events(bp: BranchingProcess, cut: frozenset) -> tuple:
    return tuple(sorted(e for e, ev in bp.events.items() if ev.pre <= cut))


def cut_step(bp: BranchingProcess, cut: frozenset, eid: str) -> frozenset:
    """gamma + e."""
    if eid not in bp.events:
        raise InputError(f"unknown event {eid!r}")
    event = bp.events[eid]
    if not event.pre <= cut:
        raise PreconditionError(f"event {eid} is not enabled at the given cut")
    return (cut - event.pre) | event.post


def events_before_cut(bp: BranchingProcess, cut: frozenset) -> frozenset:
    """Events e with e F+ y for some y in the cut."""
    acc: set = set()
    for c in cut:
        acc |= bp.event_past(c)
    return frozenset(acc)


def cut_order(bp: BranchingProcess, cut1: frozenset, cut2: frozenset) -> str:
    """Compare two B-cuts: lt, gt, eq or incomparable."""
    for cut in (cut1, cut2):
        if not is_cut(bp, cut):
            raise InputError("cut_order requires B-cuts of the prefix")
    if cut1 == cut2:
        return "eq"

    def less(a: frozenset, b: frozenset) -> bool:
        if not all(any(bp.causally_le(x, y) for x in a) for y in b):
            return False
        if not all(any(bp.causally_le(x, y) for y in b) for x in a):
            return False
        return any(x != y and bp.causally_le(x, y)
                   for x in a for y in b)

    if less(cut1, cut2):
        return "lt"
    if less(cut2, cut1):
        return "gt"
    return "incomparable"


def is_run(bp: BranchingProcess) -> bool:
    """Conflict-free: no condition feeds two events."""
    return all(len(cs) <= 1 for cs in bp.consumers.values())


def is_maximal_refinement(bp: BranchingProcess, cuts: Sequence[frozenset]) -> bool:
    """True iff no compatible cut can be inserted between consecutive cuts,
    i.e. consecutive cuts differ by exactly one event."""
    cuts = [frozenset(c) for c in cuts]
    if not cuts:
        raise InputError("empty cut sequence")
    for a, b in zip(cuts, cuts[1:]):
        if cut_order(bp, a, b) != "lt":
            raise InputError("cut sequence is not increasing")
    for a, b in zip(cuts, cuts[1:]):
        gap = events_before_cut(bp, b) - events_before_cut(bp, a)
        if len(gap) != 1:
            return False
    return True


# -- plays -------------------------------------------------------------------

@dataclass(frozen=True)
class Play:
    """A run plus an increasing cut sequence, at desk scale.

    ``steps`` lists, per recorded cut, the transitions fired since the
    previous cut (several labels in one step mean the recorded sequence
    skipped the intermediate cuts).  ``cycle`` is a segment of single-event
    steps repeated forever; an empty cycle means the play is finite.
    ``trailing`` holds events fired after the last recorded cut, which a
    well-formed play must not have.
    """
    steps: tuple = ()
    cycle: tuple = ()
    trailing: tuple = ()

    @staticmethod
    def from_sequence(transitions: Iterable[str], cycle: Iterable[str] = ()) -> "Play":
        return Play(tuple((t,) for t in transitions), tuple(cycle), ())


class MaterialisedPlay:
    """The concrete run of a play: prefix plus ``passes`` copies of the cycle."""

    def __init__(self, bp: BranchingProcess, cuts: list, step_events: list,
                 cycle_starts_at: int, events_in_order: list, pass_boundaries: list):
        self.bp = bp
        self.cuts = cuts                      # recorded cuts, cut 0 = initial
        self.step_events = step_events        # event ids per recorded step
        self.cycle_starts_at = cycle_starts_at  # index into step_events
        self.events_in_order = events_in_order
        self.pass_boundaries = pass_boundaries  # event count at end of each pass

    def markings(self) -> list:
        return [self.bp.mu(c) for c in self.cuts]


def materialise_play(net: NetSystem, play: Play, passes: int = 2) -> MaterialisedPlay:
    """Fire the play's transitions, building its run and recorded cuts.

    Raises InputError when a listed transition is not enabled where it
    appears or when the cycle does not return to its starting marking.
    """
    require_valid(net)
    occ = _OccurrenceNet(net)
    current = {occ.conditions[c].label: c for c in occ.minimal}  # place -> condition
    events_in_order: list = []

    def fire_label(t: str) -> None:
        if t not in net.transitions:
            raise InputError(f"unknown transition {t!r} in play")
        if t not in enabled_set(net, frozenset(current)):
            raise InputError(
                f"transition {t} is not enabled at marking "
                f"{format_marking(frozenset(current))} while replaying the play")
        event = occ.event(t, frozenset(current.pop(p) for p in net.pre(t)))
        events_in_order.append(event.eid)
        for c in event.post:
            current[occ.conditions[c].label] = c

    cuts = [frozenset(occ.minimal)]
    step_events: list = []
    for step in play.steps:
        if not step:
            raise InputError("empty step group in play")
        fired = []
        for t in step:
            fire_label(t)
            fired.append(events_in_order[-1])
        step_events.append(tuple(fired))
        cuts.append(frozenset(current.values()))

    cycle_starts_at = len(step_events)
    pass_boundaries = []
    if play.cycle:
        start_marking = frozenset(current)
        for _ in range(passes):
            for t in play.cycle:
                fire_label(t)
                step_events.append((events_in_order[-1],))
                cuts.append(frozenset(current.values()))
            if frozenset(current) != start_marking:
                raise InputError(
                    "play cycle does not return to its starting marking "
                    f"({format_marking(start_marking)} vs {format_marking(frozenset(current))})")
            pass_boundaries.append(len(events_in_order))

    for t in play.trailing:
        fire_label(t)

    return MaterialisedPlay(occ.process(), cuts, step_events, cycle_starts_at,
                            events_in_order, pass_boundaries)


def _forever_surviving_labels(net: NetSystem, play: Play, mat: MaterialisedPlay) -> frozenset:
    """Places whose current condition is never consumed again, at any point
    of the (possibly infinite) run.

    For lasso plays a condition created in the prefix or the first cycle
    pass survives forever iff it has no consumer through the second pass:
    the cycle acts identically on every later pass.
    """
    bp = mat.bp
    if play.cycle:
        first_pass_end = mat.pass_boundaries[0]
        window = set(mat.events_in_order[:first_pass_end])
        candidates = [c for c in bp.conditions.values()
                      if c.producer is None or c.producer in window]
    else:
        candidates = list(bp.conditions.values())
    return frozenset(c.label for c in candidates if not bp.consumers[c.cid])


def validate_play(net: NetSystem, play: Play, horizon: int) -> list[str]:
    """Check the three defining conditions of a play, up to the horizon.

    (1) no uncontrollable event can be added to the run; (2) a finite play
    ends in a deadlock; (3) every event precedes some recorded cut.
    """
    if play.trailing and play.cycle:
        raise InputError("trailing events are only meaningful for finite plays")
    needed = sum(len(s) for s in play.steps) + len(play.cycle) + len(play.trailing)
    if horizon < needed:
        raise InputError(
            f"horizon {horizon} is smaller than the play's {needed} events")
    mat = materialise_play(net, play, passes=2)
    survivors = _forever_surviving_labels(net, play, mat)

    diags: list[str] = []
    for t in sorted(net.transitions):
        if not net.is_controllable(t) and net.pre(t) <= survivors:
            diags.append(f"uncontrollable event {t} addable")
    if not play.cycle:
        for t in sorted(net.transitions):
            if net.is_controllable(t) and net.pre(t) <= survivors:
                diags.append(f"controllable event {t} addable at the final cut")
    for t in play.trailing:
        diags.append(f"event {t} not covered by any cut")
    return diags


# -- strategies on the net side ----------------------------------------------

class NetStrategy:
    """A memoryless strategy of one user: marking -> set of its transitions."""

    def __init__(self, owner: str, choice: Mapping[Marking, Iterable[str]]):
        self.owner = owner
        self.choice = {frozenset(m): frozenset(ts) for m, ts in choice.items()}

    def at(self, marking: Marking) -> frozenset:
        return self.choice.get(frozenset(marking), frozenset())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{format_marking(m)}->{sorted(ts)}" for m, ts in
            sorted(self.choice.items(), key=lambda kv: tuple(sorted(kv[0]))))
        return f"NetStrategy({self.owner}: {parts})"


def check_strategy(net: NetSystem, strategy: NetStrategy) -> None:
    if strategy.owner not in net.users:
        raise InputError(f"strategy owner {strategy.owner!r} is not a user location")
    owned = set(net.transitions_of(strategy.owner))
    kernel = net.kernel
    for m, ts in strategy.choice.items():
        enabled = kernel.enabled(kernel.encode(m))
        for t in sorted(ts):
            if t not in owned:
                raise InputError(
                    f"strategy for {strategy.owner} chooses foreign transition {t}")
            if t not in enabled:
                raise InputError(
                    f"strategy for {strategy.owner} chooses {t}, "
                    f"not enabled at {format_marking(m)}")


def consistent_with(net: NetSystem, play: Play,
                    strategies: Iterable[NetStrategy]) -> tuple[bool, list[str]]:
    """Is the play consistent with the given strategy profile?

    Each owned event must be the only event between two consecutive cuts
    and be chosen by its owner's strategy there; and no owner may be
    finally postponed, decided on the cycle.
    """
    profile = {}
    for strategy in strategies:
        check_strategy(net, strategy)
        profile[strategy.owner] = strategy
    mat = materialise_play(net, play, passes=1)
    markings = mat.markings()

    diags: list[str] = []
    for i, fired in enumerate(mat.step_events):
        before = markings[i]
        for eid in fired:
            t = mat.bp.events[eid].label
            owner = net.location_of(t)
            strategy = profile.get(owner)
            if strategy is None:
                continue
            if len(fired) != 1:
                diags.append(
                    f"user event {t} is not alone between consecutive cuts")
            if t not in strategy.at(before):
                diags.append(
                    f"user event {t} not chosen by {owner}'s strategy "
                    f"at {format_marking(before)}")
    if play.cycle:
        cycle_markings = markings[mat.cycle_starts_at:
                                  mat.cycle_starts_at + len(play.cycle)]
        cycle_labels = set(play.cycle)
        for owner, strategy in sorted(profile.items()):
            if all(strategy.at(m) for m in cycle_markings) and \
                    not any(net.location_of(t) == owner for t in cycle_labels):
                diags.append(f"finally postponed: {owner}")
    return (not diags, diags)


# -- play files and DOT --------------------------------------------------------

def parse_play(text: str) -> Play:
    """Play file: a firing sequence, one transition per token; an optional
    ``cycle:`` line lists the repeated segment.  Tokens joined with '+'
    form one multi-event step."""
    steps: list = []
    cycle: list = []
    trailing: list = []
    target = "steps"
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("cycle:"):
            target = "cycle"
            line = line[len("cycle:"):]
        elif line.startswith("trailing:"):
            target = "trailing"
            line = line[len("trailing:"):]
        for token in line.split():
            if target == "steps":
                steps.append(tuple(token.split("+")))
            elif target == "cycle":
                cycle.extend(token.split("+"))
            else:
                trailing.extend(token.split("+"))
    return Play(tuple(steps), tuple(cycle), tuple(trailing))


def format_play(play: Play) -> str:
    lines = []
    if play.steps:
        lines.append(" ".join("+".join(step) for step in play.steps))
    if play.cycle:
        lines.append("cycle: " + " ".join(play.cycle))
    if play.trailing:
        lines.append("trailing: " + " ".join(play.trailing))
    return "\n".join(lines) + "\n"


def dot_prefix(bp: BranchingProcess, cut: Optional[frozenset] = None) -> str:
    """DOT export: conditions as circles, events as boxes, an optional cut
    linked by dashed edges."""
    out = ["digraph prefix {", "  rankdir=LR;"]
    for cid in sorted(bp.conditions):
        style = ' style=bold' if cid in bp.minimal else ""
        out.append(f'  "{cid}" [shape=circle label="{cid}"{style}];')
    for eid in sorted(bp.events):
        out.append(f'  "{eid}" [shape=box label="{eid}"];')
    for eid in sorted(bp.events):
        event = bp.events[eid]
        for c in sorted(event.pre):
            out.append(f'  "{c}" -> "{eid}";')
        for c in sorted(event.post):
            out.append(f'  "{eid}" -> "{c}";')
    if cut:
        members = sorted(cut)
        for a, b in zip(members, members[1:]):
            out.append(f'  "{a}" -> "{b}" [style=dashed dir=none constraint=false];')
    out.append("}")
    return "\n".join(out) + "\n"
