"""Distributed elementary net systems and their token-game semantics.

A net system couples a finite net (places, transitions, flow) with an
initial marking and a location map: every place and transition belongs
either to the environment or to one of the users, and a transition must
share its location with all of its input places, so that every choice
is resolved locally by a single agent.

The token game on integer markings is the net's :class:`FiringKernel`
(``net.kernel``, built once per net).  It numbers the places in sorted
order and keeps every transition, in sorted order, with its pre- and
post-set as integer bitmasks, so that "pre-set marked and post-set
token-free" is two ``&`` tests.  One breadth-first search,
:func:`reachability_graph`, runs on such integer markings, fires with
``(m ^ pre) | post`` inline and notes the least contact transition of
every marking where one exists.  The graph keeps the search's own lists
and puts them in canonical order on first read: the sorted states (each
marking turned into a frozenset once), their index, the canonical
successor lists (``out``) and the edge triples.  Counting the states or
reading the contact witness sorts nothing.  The graph's
:meth:`~ReachabilityGraph.require_contact_free` is the one place that
decides contact and words its error, for :func:`require_contact_free` and
for a graph passed in; :func:`check_contact_free` reads the same witness
as a verdict.
:func:`enabled_set` is the one enabled test on frozenset markings:
play replay and the strategy checks ask it, and :func:`fire` checks its
transition there, then returns ``post(t) | (m - pre(t))``.  Public
structures keep markings as frozensets.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BoundExceeded, InputError, PreconditionError

#: A marking is a plain frozenset of place identifiers.
Marking = frozenset

DEFAULT_STATE_BOUND = 100_000


def marking_key(m: Marking) -> tuple:
    """Canonical sort key for markings (sorted place-name tuple)."""
    return tuple(sorted(m))


def format_marking(m: Marking) -> str:
    return "{" + ",".join(sorted(m)) + "}"


def parse_marking(text: str) -> Marking:
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    parts = [p.strip() for p in body.replace(",", " ").split()]
    return frozenset(p for p in parts if p)


class NetSystem:
    """An immutable distributed elementary net system.

    ``locations`` lists the environment first, then one entry per user.
    ``assignment`` maps every place and transition to its location.
    Construction normalises everything into sorted tuples so that two
    structurally equal nets compare and print identically.
    """

    __slots__ = ("name", "places", "transitions", "flow", "initial",
                 "locations", "assignment", "__dict__")

    def __init__(self, name: str, places: Iterable[str], transitions: Iterable[str],
                 flow: Iterable[tuple[str, str]], initial: Iterable[str],
                 locations: Iterable[str], assignment: Mapping[str, str]):
        self.name = name
        self.places = frozenset(places)
        self.transitions = frozenset(transitions)
        self.flow = frozenset((str(a), str(b)) for a, b in flow)
        self.initial = frozenset(initial)
        self.locations = tuple(locations)
        self.assignment = dict(assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetSystem):
            return NotImplemented
        return (self.name, self.places, self.transitions, self.flow, self.initial,
                self.locations, self.assignment) == \
               (other.name, other.places, other.transitions, other.flow, other.initial,
                other.locations, other.assignment)

    def __hash__(self) -> int:
        return hash((self.name, self.places, self.transitions, self.flow,
                     self.initial, self.locations))

    def __repr__(self) -> str:
        return (f"NetSystem({self.name!r}, |P|={len(self.places)}, "
                f"|T|={len(self.transitions)}, locations={list(self.locations)})")

    # -- structural accessors -------------------------------------------

    @functools.cached_property
    def _pre(self) -> dict[str, frozenset]:
        pre: dict[str, set] = {x: set() for x in self.places | self.transitions}
        for a, b in self.flow:
            if b in pre:
                pre[b].add(a)
        return {x: frozenset(s) for x, s in pre.items()}

    @functools.cached_property
    def _post(self) -> dict[str, frozenset]:
        post: dict[str, set] = {x: set() for x in self.places | self.transitions}
        for a, b in self.flow:
            if a in post:
                post[a].add(b)
        return {x: frozenset(s) for x, s in post.items()}

    def pre(self, x: str) -> frozenset:
        try:
            return self._pre[x]
        except KeyError:
            raise InputError(f"unknown net element {x!r}") from None

    def post(self, x: str) -> frozenset:
        try:
            return self._post[x]
        except KeyError:
            raise InputError(f"unknown net element {x!r}") from None

    @property
    def env(self) -> str:
        return self.locations[0]

    @property
    def users(self) -> tuple:
        return self.locations[1:]

    def location_of(self, x: str) -> str:
        try:
            return self.assignment[x]
        except KeyError:
            raise InputError(f"element {x!r} has no location") from None

    def is_controllable(self, t: str) -> bool:
        return self.location_of(t) != self.env

    def transitions_of(self, location: str) -> tuple:
        return tuple(sorted(t for t in self.transitions
                            if self.assignment.get(t) == location))

    @functools.cached_property
    def kernel(self) -> "FiringKernel":
        return FiringKernel(self)


class FiringKernel:
    """The token game of one net on integer markings.

    Bit ``i`` of a marking stands for ``places[i]``: the places in sorted
    order, followed, for malformed nets only, by any other name a flow arc
    mentions.  ``arcs`` lists every transition in sorted order with its
    pre- and post-set masks.
    """

    __slots__ = ("places", "arcs", "_bit")

    def __init__(self, net: NetSystem):
        extra = {x for arc in net.flow for x in arc} - net.places
        self.places = tuple(sorted(net.places)) + tuple(sorted(extra))
        self._bit = {p: 1 << i for i, p in enumerate(self.places)}
        self.arcs = tuple((t, self.encode(net.pre(t)), self.encode(net.post(t)))
                          for t in sorted(net.transitions))

    def encode(self, m: frozenset) -> int:
        """The mask of ``m``; names the net never mentions carry no bit."""
        bit, x = self._bit, 0
        for p in m:
            x |= bit.get(p, 0)
        return x

    def decode(self, x: int) -> tuple:
        """The places of mask ``x`` in sorted order (its ``marking_key``)."""
        places = self.places
        out = []
        while x:
            low = x & -x
            out.append(places[low.bit_length() - 1])
            x ^= low
        return tuple(out)

    def enabled(self, x: int) -> tuple:
        """Transitions enabled at ``x``, sorted: pre-set marked and post-set
        token-free."""
        return tuple(t for t, pre, post in self.arcs
                     if x & pre == pre and not x & post)


class ReachabilityGraph:
    """Explicit reachable-marking graph in canonical order.

    ``states`` are sorted by :func:`marking_key`; ``out[i]`` lists the
    ``(transition, target index)`` pairs of state ``i`` by transition;
    ``edges`` spells the same edges out as ``(marking, transition,
    marking)`` triples, sorted by source marking, then transition.  All
    three and ``index`` are built on first read from the search's integer
    markings ``_found`` and successor lists: ``_succ[b]`` lists the
    ``(transition, search index)`` pairs of the ``b``-th marking found,
    ``_keys[b]`` is its :func:`marking_key`, ``_order[i]`` is the search
    index of state ``i`` and ``_rank`` is the inverse of ``_order``.
    ``len(graph)`` sorts nothing.
    ``contact`` is the least ``(marking, transition)`` in canonical order
    whose transition has its pre-set marked and its post-set not
    token-free, or None for a contact-free net.
    """

    def __init__(self, kernel: FiringKernel, found: Sequence[int],
                 succ: Sequence[Sequence[tuple]], initial: Marking,
                 contact: Optional[tuple] = None):
        self._kernel = kernel
        self._found = found
        self._succ = succ
        self.initial = initial
        self.contact = contact

    @functools.cached_property
    def _keys(self) -> list:
        return list(map(self._kernel.decode, self._found))

    @functools.cached_property
    def _order(self) -> list:
        return sorted(range(len(self._found)), key=self._keys.__getitem__)

    @functools.cached_property
    def _rank(self) -> list:
        rank = [0] * len(self._found)
        for i, b in enumerate(self._order):
            rank[b] = i
        return rank

    @functools.cached_property
    def states(self) -> tuple:
        keys = self._keys
        return tuple([frozenset(keys[b]) for b in self._order])

    @functools.cached_property
    def index(self) -> dict:
        return {m: i for i, m in enumerate(self.states)}

    @functools.cached_property
    def out(self) -> tuple:
        rank = self._rank
        return tuple(tuple((t, rank[j]) for t, j in self._succ[b]) for b in self._order)

    @functools.cached_property
    def edges(self) -> tuple:
        return tuple((m, t, self.states[j])
                     for m, succ in zip(self.states, self.out)
                     for t, j in succ)

    def __len__(self) -> int:
        return len(self._found)

    def require_contact_free(self) -> "ReachabilityGraph":
        """This graph, when its net is contact-free; InputError naming the
        contact witness otherwise."""
        if self.contact is not None:
            m, t = self.contact
            raise InputError(
                f"net is not contact-free: transition {t} has a marked post-set "
                f"at reachable marking {format_marking(m)}")
        return self


def validate_net(net: NetSystem) -> list[str]:
    """Check all structural invariants; return one diagnostic per violation.

    An empty list means the net is a well-formed distributed elementary
    net system (it may still fail the contact-freeness check, which
    needs the reachability graph).
    """
    diags: list[str] = []
    problem = _char_problem(net.name, _NAME_SPLIT)
    if problem:
        diags.append(f"net name {net.name!r} {problem} in the net text format")
    overlap = net.places & net.transitions
    for x in sorted(overlap):
        diags.append(f"identifier {x!r} is both a place and a transition")
    for x in sorted(net.places | net.transitions):
        problem = _id_problem(x)
        if problem:
            diags.append(f"identifier {x!r} {problem} in the net text format")
    for a, b in sorted(net.flow):
        ok = (a in net.places and b in net.transitions) or \
             (a in net.transitions and b in net.places)
        if not ok:
            diags.append(f"flow arc ({a},{b}) does not connect a place and a transition")
    if len(net.locations) != len(set(net.locations)):
        diags.append("duplicate location names")
    for loc in net.locations:
        problem = _location_problem(loc)
        if problem:
            diags.append(f"location {loc!r} {problem} in the text formats")
    for x in sorted(net.places | net.transitions):
        loc = net.assignment.get(x)
        if loc is None:
            diags.append(f"element {x!r} has no location")
        elif loc not in net.locations:
            diags.append(f"element {x!r} assigned to unknown location {loc!r}")
    for t in sorted(net.transitions):
        if not net.pre(t):
            diags.append(f"empty pre-set of {t}")
        if not net.post(t):
            diags.append(f"empty post-set of {t}")
    for t in sorted(net.transitions):
        for p in sorted(net.pre(t)):
            if p in net.places and net.assignment.get(p) != net.assignment.get(t):
                diags.append(f"distribution violated at ({p},{t}): "
                             f"input place and transition have different locations")
    for p in sorted(net.initial):
        if p not in net.places:
            diags.append(f"initial marking contains unknown place {p!r}")
    return diags


def require_valid(net: NetSystem) -> None:
    diags = validate_net(net)
    if diags:
        raise InputError("invalid net: " + "; ".join(diags))


def enabled_set(net: NetSystem, m: Marking) -> frozenset:
    """Transitions enabled at ``m``: pre-set marked and post-set token-free."""
    unknown = m - net.places
    if unknown:
        raise InputError(f"marking contains unknown places: {sorted(unknown)}")
    kernel = net.kernel
    return frozenset(kernel.enabled(kernel.encode(m)))


def fire(net: NetSystem, m: Marking, t: str) -> Marking:
    """Fire ``t`` at ``m``, producing ``post(t) | (m - pre(t))``."""
    if t not in net.transitions:
        raise InputError(f"unknown transition {t!r}")
    if t not in enabled_set(net, m):
        raise PreconditionError(
            f"transition {t} is not enabled at {format_marking(m)}")
    return net.post(t) | (m - net.pre(t))


def reachability_graph(net: NetSystem, max_states: int = DEFAULT_STATE_BOUND) -> ReachabilityGraph:
    """BFS over the token game from the initial marking, on the net's
    kernel.  The graph keeps the reachable integer markings in search
    order and each one's ``(transition, search index)`` successors, and
    names as its contact witness the ``(marking, transition)`` whose
    marking has the least ``marking_key`` (decoding only the markings with
    contact), or None."""
    require_valid(net)
    kernel = net.kernel
    arcs = kernel.arcs
    found = [kernel.encode(net.initial)]     # markings in BFS order
    seen = {found[0]: 0}
    out = []                                 # per BFS index: (t, BFS index)
    contact = {}                             # BFS index -> least contact t
    for i, m in enumerate(found):
        succ = []
        for t, pre, post in arcs:
            if m & pre != pre:
                continue
            if m & post:
                contact.setdefault(i, t)
                continue
            m2 = (m ^ pre) | post
            j = seen.get(m2)
            if j is None:
                if len(seen) >= max_states:
                    raise BoundExceeded(
                        f"reachability graph exceeds {max_states} states", max_states)
                j = seen[m2] = len(found)
                found.append(m2)
            succ.append((t, j))
        out.append(succ)
    witness = None
    if contact:
        key, i = min((kernel.decode(found[i]), i) for i in contact)
        witness = (frozenset(key), contact[i])
    return ReachabilityGraph(kernel, found, out, net.initial, witness)


def check_contact_free(net: NetSystem, max_states: int = DEFAULT_STATE_BOUND,
                       ) -> tuple[bool, Optional[tuple[Marking, str]]]:
    """``(True, None)``, or ``(False, (marking, transition))`` with the
    reachability graph's contact witness: the first reachable marking in
    canonical order covering some pre-set while the corresponding
    post-set is not token-free."""
    witness = reachability_graph(net, max_states).contact
    return witness is None, witness


def require_contact_free(net: NetSystem,
                         max_states: int = DEFAULT_STATE_BOUND) -> ReachabilityGraph:
    """The reachability graph of a contact-free net; InputError otherwise.
    Every command that needs a contact-free net asks here."""
    return reachability_graph(net, max_states=max_states).require_contact_free()


class StructuralRelation:
    """Result of the pairwise transition query."""

    __slots__ = ("kind", "concurrent_at")

    def __init__(self, kind: str, concurrent_at: Optional[bool]):
        self.kind = kind              # "conflict" | "independent" | "neither"
        self.concurrent_at = concurrent_at

    def __repr__(self) -> str:
        return f"StructuralRelation({self.kind!r}, concurrent_at={self.concurrent_at})"


def structural_relation(net: NetSystem, t1: str, t2: str,
                        m: Optional[Marking] = None) -> StructuralRelation:
    """Classify ``t1`` vs ``t2``: conflict (shared input place), independent
    (disjoint neighbourhoods), or neither; with ``m`` given, additionally
    report whether they are concurrent there (independent and both enabled)."""
    for t in (t1, t2):
        if t not in net.transitions:
            raise InputError(f"unknown transition {t!r}")
    if t1 == t2:
        raise InputError("structural_relation requires two distinct transitions")
    if net.pre(t1) & net.pre(t2):
        kind = "conflict"
    elif not ((net.pre(t1) | net.post(t1)) & (net.pre(t2) | net.post(t2))):
        kind = "independent"
    else:
        kind = "neither"
    concurrent_at = None
    if m is not None:
        enabled = enabled_set(net, m)
        concurrent_at = kind == "independent" and t1 in enabled and t2 in enabled
    return StructuralRelation(kind, concurrent_at)


# -- text format ---------------------------------------------------------
#
#   net <name>
#   locations <env> <u1> ... <uk>
#   place <id> @<location> [init]
#   trans <id> @<location> pre <id>+ post <id>+
#
# As in every text format, '#' starts a comment and blank lines are
# skipped (:func:`significant_lines`).  The keywords 'pre' and 'post' name
# no place or transition, so the lists they open are never ambiguous.

RESERVED_IDS = frozenset({"pre", "post", "pass"})
#: the characters some text format splits on, in ids, location and net names
_ID_SPLIT = re.compile(r"[\s#,+@]")
_LOCATION_SPLIT = re.compile(r"[\s#:]")
_NAME_SPLIT = re.compile(r"[\s#]")


def _id_problem(ident: str) -> Optional[str]:
    """Why ``ident`` cannot name a place or transition, or None: it is a
    keyword or ``pass``, the idle move of strategy files, or it holds a
    character some text format splits on (whitespace and ``#`` in all of
    them, ``,`` in markings, ``+`` in play steps, ``@`` in locations and
    ``pass@`` lasso tokens)."""
    return "is reserved" if ident in RESERVED_IDS else _char_problem(ident, _ID_SPLIT)


def _location_problem(name: str) -> Optional[str]:
    """Why ``name`` cannot name a location, or None: whitespace and ``#``
    split net lines, and ``:`` ends the user's name in strategy lines."""
    return _char_problem(name, _LOCATION_SPLIT)


def _char_problem(name: str, reserved: re.Pattern) -> Optional[str]:
    """Why ``name`` is no single token of a text format, or None: it is
    empty, or it holds a character that format splits on."""
    if not name:
        return "is empty"
    bad = reserved.search(name)
    return None if bad is None else f"contains {bad.group()!r}, which is reserved"


def significant_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, stripped line)`` of each line that holds more than
    blanks and a ``#`` comment: the line rule of every text format."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_net(text: str) -> NetSystem:
    name = None
    locations: list[str] = []
    places: list[str] = []
    transitions: list[str] = []
    flow: list[tuple[str, str]] = []
    initial: list[str] = []
    assignment: dict[str, str] = {}
    declared: dict[tuple, int] = {}   # (kind, id) -> line of its declaration

    def fail(lineno: int, msg: str) -> None:
        raise InputError(f"net format error on line {lineno}: {msg}")

    def declare(lineno: int, kind: str, ident: Optional[str] = None) -> None:
        first = declared.setdefault((kind, ident), lineno)
        if first != lineno:
            what = f"{kind} {ident!r}" if ident is not None else f"'{kind}' line"
            fail(lineno, f"duplicate {what} (first on line {first})")

    for lineno, line in significant_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "net":
            if len(tokens) != 2:
                fail(lineno, "expected: net <name>")
            declare(lineno, "net")
            name = tokens[1]
        elif kind == "locations":
            if len(tokens) < 2:
                fail(lineno, "expected: locations <env> [<user> ...]")
            declare(lineno, "locations")
            locations = tokens[1:]
            for loc in locations:
                problem = _location_problem(loc)
                if problem:
                    fail(lineno, f"{loc!r} {problem} and cannot name a location")
        elif kind == "place":
            if len(tokens) < 3 or not tokens[2].startswith("@"):
                fail(lineno, "expected: place <id> @<location> [init]")
            pid, loc = tokens[1], tokens[2][1:]
            problem = _id_problem(pid)
            if problem:
                fail(lineno, f"{pid!r} {problem} and cannot name a place")
            rest = tokens[3:]
            if rest not in ([], ["init"]):
                fail(lineno, f"unexpected tokens {rest} after place declaration")
            declare(lineno, "place", pid)
            places.append(pid)
            assignment[pid] = loc
            if rest == ["init"]:
                initial.append(pid)
        elif kind == "trans":
            if len(tokens) < 3 or not tokens[2].startswith("@"):
                fail(lineno, "expected: trans <id> @<location> pre <id>+ post <id>+")
            tid, loc = tokens[1], tokens[2][1:]
            problem = _id_problem(tid)
            if problem:
                fail(lineno, f"{tid!r} {problem} and cannot name a transition")
            if "pre" not in tokens or "post" not in tokens:
                fail(lineno, "transition needs both a 'pre' and a 'post' list")
            if tokens[3] != "pre":
                fail(lineno, "'pre' must follow the transition's location")
            post_at = tokens.index("post", 4)
            pre_ids = tokens[4:post_at]
            post_ids = tokens[post_at + 1:]
            if not pre_ids or not post_ids:
                fail(lineno, "empty pre or post list")
            declare(lineno, "transition", tid)
            transitions.append(tid)
            assignment[tid] = loc
            for p in pre_ids:
                flow.append((p, tid))
            for p in post_ids:
                flow.append((tid, p))
        else:
            fail(lineno, f"unknown declaration {kind!r}")
    if name is None:
        raise InputError("net format error: missing 'net <name>' line")
    if not locations:
        raise InputError("net format error: missing 'locations' line")
    return NetSystem(name, places, transitions, flow, initial, locations, assignment)


def format_net(net: NetSystem) -> str:
    """Canonical text form; parse(format(net)) reproduces every net that
    :func:`validate_net` accepts."""
    lines = [f"net {net.name}", "locations " + " ".join(net.locations)]
    for p in sorted(net.places):
        init = " init" if p in net.initial else ""
        lines.append(f"place {p} @{net.assignment[p]}{init}")
    for t in sorted(net.transitions):
        pre = " ".join(sorted(net.pre(t)))
        post = " ".join(sorted(net.post(t)))
        lines.append(f"trans {t} @{net.assignment[t]} pre {pre} post {post}")
    return "\n".join(lines) + "\n"


def dot_reachability(graph: ReachabilityGraph,
                     labels: Optional[Sequence[str]] = None) -> Iterator[str]:
    """DOT rendering of the reachability graph (stable across runs), given
    the states' :func:`format_marking` labels or making them.  The search
    starts at the initial marking, so its canonical index is the rank of
    search index 0."""
    if labels is None:
        labels = [format_marking(m) for m in graph.states]
    return _dot_graph("reachability", labels, graph._rank[0], graph.out)


def _dot_graph(kind: str, labels: Sequence[str], initial: int,
               rows: Iterable[Iterable[tuple]]) -> Iterator[str]:
    """DOT text of a state graph in whole lines: the header, each state's
    node line, then each state's edges.  The i-th row lists state i's
    ``(edge label, successor index)`` pairs."""
    yield f"digraph {kind} {{\n  rankdir=LR;\n  node [shape=ellipse];\n"
    for i, label in enumerate(labels):
        yield f'  "{label}" [label="{label}"{" penwidth=2" if i == initial else ""}];\n'
    targets = [f'"{label}"' for label in labels]
    tails: dict = {}                                  # edge label -> line tail
    for target, row in zip(targets, rows):
        head, parts = f"  {target} -> ", []
        for text, j in row:
            parts += head, targets[j], tails.get(text) or tails.setdefault(
                text, f' [label="{text}"];\n')
        yield "".join(parts)
    yield "}\n"
