"""Branching processes of a net system: prefixes of the unfolding, B-cuts,
runs, plays, and the validity/consistency checks plays must satisfy.

There is one occurrence-net type, :class:`BranchingProcess`, for both
the unfolding prefix and a play's run: each is built in place, one event
at a time, and then only read.  Identifiers are deterministic: the k-th
occurrence of place ``p`` is the condition ``p.k`` and the k-th
occurrence of transition ``t`` is the event ``t.k``, counting creation
order; every event records its causal depth.  :func:`unfold_prefix`
takes its contact check from :func:`require_contact_free`, keeps the
co-relation of its conditions (which pairs are concurrent) as bitmasks
and extends the prefix layer by layer with the co-sets that match a
transition's pre-set; :func:`materialise_play` asks :func:`enabled_set`
before each transition of a play fires.  :func:`interleavings` lists the
orders of a set of events that respect causality.

B-cuts, their order and conflict are read from configurations, through
one test that no condition feeds two of a set of events: a B-cut is the
cut of the conflict-free set of events below it, two B-cuts compare as
those sets do by inclusion, two elements are in conflict when their
pasts together are not conflict-free, and a run is conflict-free whole.

Infinite plays are kept finite as a prefix of single- or multi-event steps
plus a lasso: a segment of transitions repeated forever at the marking
level.  Validation materialises the prefix and one pass of the lasso,
which every later pass repeats from the same marking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BoundExceeded, InputError, PreconditionError
from .nets import (
    DEFAULT_STATE_BOUND,
    Marking,
    NetSystem,
    enabled_set,
    format_marking,
    require_contact_free,
    require_valid,
    significant_lines,
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
    """A branching process with its labelling, built in place and then
    only read.

    ``BranchingProcess(net)`` holds the minimal conditions, one per
    initially marked place, and :meth:`event` adds an event with one new
    condition per output place.  Conditions are numbered ``p.k`` and
    events ``t.k`` (a valid net never names a place and a transition
    alike); ``events`` keeps the events in the order they were added.
    Every event's causal depth is one more than the greatest ``_depth``
    of its pre-conditions, their producers' depth.
    """

    def __init__(self, net: NetSystem):
        self.net = net
        self.conditions: dict[str, Condition] = {}
        self.events: dict[str, Event] = {}
        self._count: dict[str, int] = {}
        self._depth: dict[str, int] = {}      # condition -> its producer's depth
        self._post = {t: sorted(net.post(t)) for t in net.transitions}  # sorted once
        self._event_past_cache: dict[str, frozenset] = {}
        self.minimal = frozenset([self._condition(p, None, 0) for p in sorted(net.initial)])

    def _name(self, label: str) -> str:
        k = self._count[label] = self._count.get(label, 0) + 1
        return f"{label}.{k}"

    def _condition(self, place: str, producer: Optional[str], depth: int) -> str:
        cid = self._name(place)
        self.conditions[cid] = Condition(cid, place, producer)
        self._depth[cid] = depth
        return cid

    def event(self, t: str, pre: frozenset) -> Event:
        """Add the occurrence of ``t`` that consumes ``pre``, with one new
        condition per output place."""
        eid = self._name(t)
        depths, depth = self._depth, 0
        for c in pre:
            if depths[c] > depth:
                depth = depths[c]
        depth += 1
        post = frozenset([self._condition(p, eid, depth) for p in self._post[t]])
        event = self.events[eid] = Event(eid, t, pre, post, depth)
        return event

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
                acc.add(y)
                stack.extend(self.events[y].pre)
            else:
                producer = self.conditions[y].producer
                if producer is not None and producer not in acc:
                    stack.append(producer)
        result = frozenset(acc)
        self._event_past_cache[x] = result
        return result


def unfold_prefix(net: NetSystem, depth: int,
                  max_size: int = DEFAULT_PREFIX_BOUND,
                  max_states: int = DEFAULT_STATE_BOUND) -> BranchingProcess:
    """The prefix of the unfolding containing all events of causal depth
    <= ``depth`` (and their conditions).  The contact-freeness check that
    precedes it, :func:`require_contact_free`, explores at most
    ``max_states`` markings and reads only the graph's witness, so the
    state space is never put in canonical order.

    Layer k adds, in ``(t, sorted pre-set)`` order, an event for every
    co-set labelled by some ``pre(t)`` that has none yet; such a co-set
    holds a condition of layer k - 1, so the search starts from those,
    and stops at the first layer that has none.
    It reads tables built once per net: per place, the transitions it
    feeds, each with its other input places sorted, and per transition,
    its sorted post-set.
    """
    if depth < 0:
        raise InputError("depth must be >= 0")
    require_contact_free(net, max_states=max_states)
    return _unfold(net, depth, max_size)


def _unfold(net: NetSystem, depth: int, max_size: int) -> BranchingProcess:
    """:func:`unfold_prefix`'s prefix, for a valid, contact-free net."""
    bp = BranchingProcess(net)
    feeds = {p: [(t, sorted(net.pre(t) - {p})) for t in sorted(net.post(p))]
             for p in net.places}
    # with one input place per transition every co-set is a single
    # condition, and the co-relation is never needed
    pairs = any(others for ts in feeds.values() for _, others in ts)
    bit: dict[str, int] = {}       # condition -> its bit in the masks below
    co: list = []                  # co[bit[c]]: mask of the conditions concurrent with c
    pools: dict[str, list] = {}    # place -> the conditions it labels

    def add_conditions(cids: Iterable[str], concurrent: int) -> None:
        # new pairwise concurrent conditions, concurrent with ``concurrent``;
        # bit numbers are private to this search, so their order is free
        first = len(co)
        siblings = ((1 << len(cids)) - 1) << first
        for i, c in enumerate(cids, start=first):
            bit[c] = i
            co.append(concurrent | (siblings & ~(1 << i)))
            pools.setdefault(bp.conditions[c].label, []).append(c)
        bits = bin(concurrent)[:1:-1]     # bit i of ``concurrent`` is bits[i]
        i = bits.find("1")
        while i >= 0:
            co[i] |= siblings
            i = bits.find("1", i + 1)

    if pairs:
        add_conditions(bp.minimal, 0)
    fresh = bp.minimal
    for _ in range(depth):
        if not fresh:             # the last layer added no event: none will follow
            break
        found = set()
        for c in fresh:
            for t, others in feeds[bp.conditions[c].label]:
                if not others:
                    found.add((t, (c,)))
                    continue
                partial = [((c,), co[bit[c]])]
                for p in others:
                    partial = [(chosen + (d,), allowed & co[bit[d]])
                               for chosen, allowed in partial
                               for d in pools.get(p, ()) if allowed >> bit[d] & 1]
                found.update((t, tuple(sorted(chosen))) for chosen, _ in partial)
        fresh = []
        for t, pre in sorted(found):
            event = bp.event(t, frozenset(pre))
            if len(bp.conditions) + len(bp.events) > max_size:
                raise BoundExceeded(
                    f"unfolding prefix exceeds {max_size} elements", max_size)
            if pairs:
                concurrent = -1           # all ones
                for c in pre:
                    concurrent &= co[bit[c]]
                add_conditions(event.post, concurrent)
            fresh.extend(event.post)
    return bp


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


def _conflict_free(bp: BranchingProcess, events: Iterable[str]) -> bool:
    """No condition feeds two of ``events``."""
    pres = [bp.events[e].pre for e in events]
    return sum(map(len, pres)) == len(frozenset().union(*pres))


def relation_query(bp: BranchingProcess, x: str, y: str) -> str:
    """Exactly one of: equal, causal_le, causal_ge, conflict, concurrent.
    Conflict: the two event pasts together are not conflict-free."""
    for z in (x, y):
        if z not in bp:
            raise InputError(f"unknown element {z!r}")
    if x == y:
        return "equal"
    past_x, past_y = bp.event_past(x), bp.event_past(y)

    def below(a: str, past: frozenset) -> bool:   # a is, or feeds, an event of past
        return a in past or any(a in bp.events[e].pre for e in past)

    if below(x, past_y):
        return "causal_le"
    if below(y, past_x):
        return "causal_ge"
    if not _conflict_free(bp, past_x | past_y):
        return "conflict"
    return "concurrent"


# -- B-cuts ----------------------------------------------------------------

def initial_cut(bp: BranchingProcess) -> frozenset:
    return bp.minimal


def is_cut(bp: BranchingProcess, conds: Iterable[str]) -> bool:
    """Pairwise concurrent and maximal among the prefix's conditions: the
    events below ``conds`` are conflict-free, and the minimal conditions and
    their post-sets, less their pre-sets, are exactly ``conds``."""
    conds = frozenset(conds)
    if not conds or not conds <= bp.conditions.keys():
        return False
    past = events_before_cut(bp, conds)
    events = [bp.events[e] for e in past]
    produced = bp.minimal.union(*(e.post for e in events))
    return _conflict_free(bp, past) and \
        produced.difference(*(e.pre for e in events)) == conds


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
    """Compare two B-cuts: lt, gt, eq or incomparable, as the
    configurations below them compare by inclusion."""
    for cut in (cut1, cut2):
        if not is_cut(bp, cut):
            raise InputError("cut_order requires B-cuts of the prefix")
    past1, past2 = events_before_cut(bp, cut1), events_before_cut(bp, cut2)
    if past1 == past2:
        return "eq"
    if past1 < past2:
        return "lt"
    if past1 > past2:
        return "gt"
    return "incomparable"


def is_run(bp: BranchingProcess) -> bool:
    """Conflict-free: no condition feeds two events."""
    return _conflict_free(bp, bp.events)


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
    """The concrete run of a play: its prefix plus one pass of the cycle."""

    def __init__(self, bp: BranchingProcess, cuts: list, step_events: list,
                 cycle_starts_at: int, final: Marking):
        self.bp = bp                          # its events in firing order
        self.cuts = cuts                      # recorded cuts, cut 0 = initial
        self.step_events = step_events        # event ids per recorded step
        self.cycle_starts_at = cycle_starts_at  # index into step_events
        self.final = final                    # marking after every event, trailing included

    def markings(self) -> list:
        return [self.bp.mu(c) for c in self.cuts]


def materialise_play(net: NetSystem, play: Play) -> MaterialisedPlay:
    """Fire the play's transitions, building its run and recorded cuts:
    the prefix, one pass of the cycle, then the trailing events.

    Raises InputError when a listed transition is not enabled where it
    appears or when the cycle does not return to its starting marking.
    """
    require_valid(net)
    bp = BranchingProcess(net)
    current = {bp.conditions[c].label: c for c in bp.minimal}  # place -> condition

    def fire_label(t: str) -> str:
        if t not in net.transitions:
            raise InputError(f"unknown transition {t!r} in play")
        if t not in enabled_set(net, frozenset(current)):
            raise InputError(
                f"transition {t} is not enabled at marking "
                f"{format_marking(frozenset(current))} while replaying the play")
        event = bp.event(t, frozenset(current.pop(p) for p in net.pre(t)))
        for c in event.post:
            current[bp.conditions[c].label] = c
        return event.eid

    cuts = [bp.minimal]
    step_events: list = []
    for step in play.steps:
        if not step:
            raise InputError("empty step group in play")
        step_events.append(tuple([fire_label(t) for t in step]))
        cuts.append(frozenset(current.values()))

    cycle_starts_at = len(step_events)
    if play.cycle:
        start_marking = frozenset(current)
        for t in play.cycle:
            step_events.append((fire_label(t),))
            cuts.append(frozenset(current.values()))
        if frozenset(current) != start_marking:
            raise InputError(
                "play cycle does not return to its starting marking "
                f"({format_marking(start_marking)} vs {format_marking(frozenset(current))})")

    for t in play.trailing:
        fire_label(t)

    return MaterialisedPlay(bp, cuts, step_events, cycle_starts_at, frozenset(current))


def validate_play(net: NetSystem, play: Play) -> list[str]:
    """Check the three defining conditions of a play on its whole run.

    (1) no uncontrollable event can be added to the run; (2) a finite play
    ends in a deadlock; (3) every event precedes some recorded cut.

    An event can be added when its pre-set lies in the run's final marking
    less the places some cycle transition reads: only those hold a condition
    that no later pass of the cycle consumes.
    """
    return _validate_play(net, play)[0]


def _validate_play(net: NetSystem, play: Play) -> tuple:
    """:func:`validate_play`'s diagnostics and the run they read."""
    if play.trailing and play.cycle:
        raise InputError("trailing events are only meaningful for finite plays")
    mat = materialise_play(net, play)
    survivors = mat.final.difference(*map(net.pre, play.cycle))

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
    return diags, mat


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
    for m, ts in strategy.choice.items():
        enabled = enabled_set(net, m)
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
    mat = materialise_play(net, play)
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
    """Play file: a firing sequence, one transition per token and '+'
    joining the events of one step; a ``cycle:`` line opens the repeated
    segment, one event per token kept whole, and a ``trailing:`` line the
    events after the last cut."""
    steps: list = []
    tails: dict = {"cycle:": [], "trailing:": []}
    target = None                   # the tail that a 'cycle:' or 'trailing:' line opened
    for _, line in significant_lines(text):
        for head, tail in tails.items():
            if line.startswith(head):
                target, line = tail, line[len(head):]
                break
        for token in line.split():
            if target is None:
                steps.append(tuple(token.split("+")))
            else:
                target.extend([token] if target is tails["cycle:"] else token.split("+"))
    return Play(tuple(steps), tuple(tails["cycle:"]), tuple(tails["trailing:"]))


def format_play(play: Play) -> str:
    lines = []
    if play.steps:
        lines.append(" ".join("+".join(step) for step in play.steps))
    if play.cycle:
        lines.append("cycle: " + " ".join(play.cycle))
    if play.trailing:
        lines.append("trailing: " + " ".join(play.trailing))
    return "\n".join(lines) + "\n"


def dot_prefix(bp: BranchingProcess, cut: Optional[frozenset] = None) -> Iterator[str]:
    """DOT export: conditions as circles, events as boxes, an optional cut
    linked by dashed edges.  Yields whole lines: the header, the condition
    nodes, the event nodes, each event's arcs, then the cut."""
    yield "digraph prefix {\n  rankdir=LR;\n"
    yield "".join(f'  "{cid}" [shape=circle label="{cid}"'
                  f'{" style=bold" if cid in bp.minimal else ""}];\n'
                  for cid in sorted(bp.conditions))
    yield "".join(f'  "{eid}" [shape=box label="{eid}"];\n' for eid in sorted(bp.events))
    for eid in sorted(bp.events):
        event = bp.events[eid]
        yield "".join([f'  "{c}" -> "{eid}";\n' for c in sorted(event.pre)] +
                      [f'  "{eid}" -> "{c}";\n' for c in sorted(event.post)])
    members = sorted(cut or ())
    yield "".join(f'  "{a}" -> "{b}" [style=dashed dir=none constraint=false];\n'
                  for a, b in zip(members, members[1:]))
    yield "}\n"
