"""Shared generators and oracles for the property and acceptance suites."""

import functools
import itertools
import random
import sys

from petrigames import fixtures, solver
from petrigames.formulas import And, Coalition, Not, Or, PathFormula, Prop, TrueConst, \
    holds_in, parse_formula, path_satisfies
from petrigames.game import LassoComputation, build_fairness, build_game, lasso_is_fair
from petrigames.nets import NetSystem, enabled_set, fire, parse_net, reachability_graph
from petrigames.randnet import random_net
from petrigames.solver import PathObjective, _FairGame, _label_fixpoint, _slot_sizes, \
    model_check
from petrigames.unfold import Play, cut_step, enabled_events, initial_cut, materialise_play

#: the caps of the wide draw, ``random_net(seed, **WIDE_DRAW)``: up to
#: three users, and nets whose profile spaces and prefixes the default
#: caps would reject
WIDE_DRAW = dict(max_places=8, max_transitions=8, max_users=3, max_states=120,
                 max_profile_space=20_000, max_prefix_size=10**6, attempts=200)


@functools.lru_cache(maxsize=None)
def corpus_net(seed, **caps):
    """``random_net(seed, **caps)``, generated once per test session.  Every
    caller gets the same net object, so a test must only read it; the
    tests that pin the generator call ``random_net`` itself."""
    return random_net(seed, **caps)


def formula_pool(net):
    """Five X-free grand-coalition path formulas over the net's places."""
    rng = random.Random(f"pool:{net.name}")
    places = sorted(net.places)

    def pick():
        return Prop(rng.choice(places))

    return (
        PathFormula("G", TrueConst()),
        PathFormula("U", TrueConst(), pick()),
        PathFormula("G", Not(pick())),
        PathFormula("U", Or(pick(), pick()), pick()),
        PathFormula("U", TrueConst(), And(pick(), pick())),
    )



def pool_goal(net, pf):
    """The grand coalition's goal of the pool path formula ``pf``."""
    args = (pf.left,) if pf.op == "G" else (pf.left, pf.right)
    return Coalition(tuple(net.users), pf.op, args)


def nested_goals(net):
    """Two nested grand-coalition goals over the net's places:
    ``<<A>> G <<A>> F p`` and ``<<A>> U(<<A>> G !p, q)``."""
    rng = random.Random(f"nested:{net.name}")
    places = sorted(net.places)
    users = tuple(net.users)
    p, q = Prop(rng.choice(places)), Prop(rng.choice(places))
    return (
        Coalition(users, "G", (Coalition(users, "U", (TrueConst(), p)),)),
        Coalition(users, "U", (Coalition(users, "G", (Not(p),)), q)),
    )


#: FIG4's goals for the plain report: the README's two, a nested one, and
#: top-level boolean forms whose coalitions lie under ``!`` or ``&`` but
#: under no other coalition
F4_REPORT_GOALS = ("<<u>> F ((p0 & p3) | (p1 & p4))", "<<u>> F (p0 & p3)",
                   "<<u>> G <<u>> F p3", "!<<u>> F p3", "!<<u>> F (p0 & p3)",
                   "<<u>> G true & <<u>> F p3", "<<u>> G true & <<u>> F (p0 & p3)")


def report_goals(wide_draw=True):
    """``(net, goals)`` on which labelling the outermost coalitions at q0
    alone must keep the verdict: ``corpus_net(1..40)`` with its pool
    goals, the wide draw of seeds 1..40 with its pool and nested goals
    (unless ``wide_draw`` is false), and FIG4 with
    :data:`F4_REPORT_GOALS`."""
    for seed in range(1, 41):
        net = corpus_net(seed)
        yield net, [pool_goal(net, pf) for pf in formula_pool(net)]
    for seed in range(1, 41) if wide_draw else ():
        net = corpus_net(seed, **WIDE_DRAW)
        yield net, [pool_goal(net, pf) for pf in formula_pool(net)] + list(nested_goals(net))
    yield parse_net(fixtures.FIG4), [parse_formula(text) for text in F4_REPORT_GOALS]


def chain_net(k):
    """chain(k): an environment toggle ``e0 <-> e1`` and, per user ``u_i``,
    a choice ``a_i: c_i -> x_i`` or ``b_i: c_i -> y_i`` that the
    environment undoes (``ra_i``, ``rb_i``); 2*3^k reachable states."""
    users = [f"u{i}" for i in range(k)]
    lines = [f"net chain{k}", "locations env " + " ".join(users),
             "place e0 @env init", "place e1 @env",
             "trans te01 @env pre e0 post e1", "trans te10 @env pre e1 post e0"]
    for i in range(k):
        lines += [f"place c{i} @u{i} init", f"place x{i} @env", f"place y{i} @env",
                  f"trans a{i} @u{i} pre c{i} post x{i}",
                  f"trans b{i} @u{i} pre c{i} post y{i}",
                  f"trans ra{i} @env pre x{i} post c{i}",
                  f"trans rb{i} @env pre y{i} post c{i}"]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def small_scope_nets():
    """Every net of the small scope, in canonical order, built once per
    test session: 2 or 3 places, 1 to 3 transitions and 1 or 2 users, up
    to renaming places and reordering transitions.  Every user owns a
    place, a transition sits at the one location of its pre-set's places,
    no two transitions have the same pre- and post-set, and the initial
    marking is not empty.  A net is kept when it is contact-free and
    reaches at least 2 markings, searched here on bitmask markings without
    ``petrigames.nets``.  Each net is the least of its renamings: its
    transitions, as sorted ``(pre, post)`` masks, and then its initial
    mask."""
    nets = []
    for size, users in itertools.product((2, 3), (1, 2)):
        places, full = range(size), 1 << size

        def rename(mask, perm):
            return sum(1 << perm[i] for i in places if mask >> i & 1)

        # place owners in ascending order, so renamings keep every owner
        for owners in itertools.combinations_with_replacement(range(users + 1), size):
            if not set(range(1, users + 1)) <= set(owners):
                continue
            perms = [perm for perm in itertools.permutations(places)
                     if all(owners[i] == owners[j] for i, j in enumerate(perm))]
            moves = [(pre, post) for pre in range(1, full) for post in range(1, full)
                     if len({owners[i] for i in places if pre >> i & 1}) == 1]
            for count in (1, 2, 3):
                for trans in itertools.combinations(moves, count):
                    images = [tuple(sorted((rename(pre, perm), rename(post, perm))
                                           for pre, post in trans)) for perm in perms]
                    if min(images) != trans:
                        continue
                    keep = [perm for perm, image in zip(perms, images) if image == trans]
                    for initial in range(1, full):
                        if min(rename(initial, perm) for perm in keep) == initial \
                                and _mask_states(trans, initial) >= 2:
                            nets.append(_scope_net(len(nets), owners, trans, initial))
    return tuple(nets)


def _mask_states(trans, initial):
    """The number of markings ``initial`` reaches under the ``(pre, post)``
    masks ``trans``, or 0 when some reachable marking has contact."""
    seen, stack = {initial}, [initial]
    while stack:
        m = stack.pop()
        for pre, post in trans:
            if m & pre == pre:
                if m & post:
                    return 0
                target = m ^ pre | post
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    return len(seen)


def _scope_net(index, owners, trans, initial):
    """The net ``scope<index>``: place ``p<i>`` at location ``owners[i]``
    (0 is the environment), transition ``t<k>`` from ``trans[k]``."""
    locations = ["env"] + [f"u{a}" for a in range(1, max(owners) + 1)]
    names = [f"p{i}" for i in range(len(owners))]
    assignment = {p: locations[a] for p, a in zip(names, owners)}
    flow = []
    for k, (pre, post) in enumerate(trans):
        assignment[f"t{k}"] = locations[owners[pre.bit_length() - 1]]
        flow += [(p, f"t{k}") for i, p in enumerate(names) if pre >> i & 1]
        flow += [(f"t{k}", p) for i, p in enumerate(names) if post >> i & 1]
    return NetSystem(f"scope{index}", names, [f"t{k}" for k in range(len(trans))], flow,
                     [p for i, p in enumerate(names) if initial >> i & 1], locations,
                     assignment)


def small_scope_goals(net):
    """The small scope's path formulas over the net's places: ``G true``,
    ``F p`` and ``G !p`` for each place, and ``p U q`` for each ordered
    pair of distinct places."""
    places = [Prop(p) for p in sorted(net.places)]
    return ([PathFormula("G", TrueConst())]
            + [PathFormula("U", TrueConst(), p) for p in places]
            + [PathFormula("G", Not(p)) for p in places]
            + [PathFormula("U", p, q) for p, q in itertools.permutations(places, 2)])


def check_small_scope_net(net):
    """The engines' cross-check on every small-scope goal of ``net``, at
    every state: ``model_check(engine="both")`` raises on a disagreement,
    its evidence at the initial state holds without the solver (a witness
    by :func:`refute_profile`, a lasso by :func:`check_first_profile_lasso`),
    and the fixpoint labelling's state set, and its witness at each state
    labelled alone, are the reference sweep's.  Returns the goal count."""
    g = build_game(net)
    fcs = build_fairness(net, g)
    states = range(len(g.states))
    q0 = g.initial_state()
    goals = small_scope_goals(net)
    for pf in goals:
        verdict = model_check(g, fcs, pool_goal(net, pf), engine="both")
        if verdict.satisfied:
            assert refute_profile(g, fcs, pf, verdict.witness, q0) is None, (net.name, pf)
        else:
            check_first_profile_lasso(g, fcs, pf, verdict.counterexample, q0)
        game = _FairGame(g, fcs, PathObjective.from_path_formula(g, pf))
        expected = reference_sweep(game, states)
        won, _ = _label_fixpoint(game, q0, states)
        assert won == {qi for qi in states if expected[qi] is not None}, (net.name, pf)
        for qi in states:
            assert _label_fixpoint(game, qi, [qi])[1] == expected[qi], (net.name, pf, qi)
    return len(goals)


def undo_play(k):
    """A play of chain(k): every user takes ``a_i`` in turn, then one step
    fires all k concurrent undo moves ``ra_i``; the toggle cycles forever."""
    return (" ".join(f"a{i}" for i in range(k)) + " "
            + "+".join(f"ra{i}" for i in range(k)) + "\ncycle: te01 te10\n")


def stack_depth():
    """Frames on the stack, counting this function's own."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def reference_reachability(net):
    """Token-game search on frozenset markings, written without
    ``petrigames.nets``: (states sorted by marking, edges sorted by
    (source marking, transition), least contact witness (marking,
    transition) or None)."""
    def key(m):
        return tuple(sorted(m))

    pre = {t: frozenset(a for a, b in net.flow if b == t) for t in net.transitions}
    post = {t: frozenset(b for a, b in net.flow if a == t) for t in net.transitions}
    seen = {net.initial}
    stack = [net.initial]
    edges = []
    contacts = []
    while stack:
        m = stack.pop()
        for t in net.transitions:
            if not pre[t] <= m:
                continue
            if post[t] & m:
                contacts.append((key(m), t))
                continue
            m2 = (m - pre[t]) | post[t]
            edges.append((m, t, m2))
            if m2 not in seen:
                seen.add(m2)
                stack.append(m2)
    states = sorted(seen, key=key)
    edges.sort(key=lambda e: (key(e[0]), e[1]))
    contact = None
    if contacts:
        m_key, t = min(contacts)
        contact = (frozenset(m_key), t)
    return states, edges, contact


def full_edges(g):
    """Adjacency of the unrestricted game graph: qi -> [(a, j, qj)]."""
    return [list(g.edges(qi)) for qi in range(len(g.states))]


def _sccs(n, succ):
    """Kosaraju over nodes 0..n-1; returns a list of node sets."""
    order = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, iter(succ[start]))]
        seen[start] = True
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                order.append(node)
                stack.pop()
    pred = [[] for _ in range(n)]
    for u in range(n):
        for v in succ[u]:
            pred[v].append(u)
    comp = [-1] * n
    label = 0
    for node in reversed(order):
        if comp[node] != -1:
            continue
        stack = [node]
        comp[node] = label
        while stack:
            u = stack.pop()
            for v in pred[u]:
                if comp[v] == -1:
                    comp[v] = label
                    stack.append(v)
        label += 1
    groups = [set() for _ in range(label)]
    for node, c in enumerate(comp):
        groups[c].add(node)
    return groups


def _bfs_edges(edges, source, goal_test, allowed=None, rng=None):
    """Shortest edge path to a goal node; random tie-breaking when rng given."""
    seen = {source: None}
    frontier = [source]
    goal = None
    while frontier and goal is None:
        nxt = []
        for node in frontier:
            if goal_test(node):
                goal = node
                break
            out = list(edges[node])
            if rng is not None:
                rng.shuffle(out)
            for a, j, qj in out:
                if allowed is not None and qj not in allowed:
                    continue
                if qj not in seen:
                    seen[qj] = (node, (a, j, qj))
                    nxt.append(qj)
        frontier = nxt
    if goal is None:
        return None
    path = []
    node = goal
    while seen[node] is not None:
        prev, edge = seen[node]
        path.append((prev, edge))
        node = prev
    return list(reversed(path))


def _edge_taken(g, fc, qi, a, j):
    if fc.player == g.scheduler_player:
        return a in fc.at(qi)
    return a == fc.player and j in fc.at(qi)


def refute_profile(g, constraints, pf, profile, q0):
    """Independent check of one memoryless profile from state ``q0``, on
    the (state, monitor) product built with this module's monitor: None
    when fair computations exist and all satisfy ``pf``; "no fair
    computation" when there are none; otherwise the product nodes of the
    fair violating strongly connected component holding the least node.
    A component is fair when it has an internal edge and, for every
    constraint, a node where it is disabled or an internal edge taking it."""
    root = (q0, monitor_start(pf, g.w(q0)))
    nodes, number, edges = [root], {root: 0}, []
    for qi, mon in nodes:
        out = []
        for a, j, qj in g.edges(qi):
            if a < g.user_count and j != profile.moves[a][qi]:
                continue
            target = (qj, monitor_step(pf, mon, g.w(qj)))
            if target not in number:
                number[target] = len(nodes)
                nodes.append(target)
            out.append((a, j, number[target]))
        edges.append(out)
    fair, violating = False, []
    for group in _sccs(len(nodes), [[t for _, _, t in out] for out in edges]):
        internal = [(nodes[v][0], a, j) for v in group
                    for a, j, t in edges[v] if t in group]
        if not internal or not all(
                any(not fc.enabled(nodes[v][0]) for v in group)
                or any(_edge_taken(g, fc, qi, a, j) for qi, a, j in internal)
                for fc in constraints):
            continue
        mon = nodes[next(iter(group))][1]
        if mon == _FAILED or (pf.op == "U" and mon == _PENDING):
            violating.append({nodes[v] for v in group})
        else:
            fair = True
    if violating:
        return min(violating, key=min)
    return None if fair else "no fair computation"


def random_fair_lasso(g, constraints, rng):
    """A random fair computation: a random walk into a terminal strongly
    connected component, then a tour witnessing every fairness constraint."""
    edges = full_edges(g)
    succ = [sorted({qj for _, _, qj in edges[qi]}) for qi in range(len(g.states))]

    prefix_edges = []
    qi = g.initial_state()
    for _ in range(rng.randrange(0, 6)):
        a, j, qj = rng.choice(edges[qi])
        prefix_edges.append((qi, (a, j, qj)))
        qi = qj

    # walk into a terminal SCC reachable from qi
    groups = _sccs(len(g.states), succ)
    comp_of = {}
    for idx, grp in enumerate(groups):
        for node in grp:
            comp_of[node] = idx
    terminal = [idx for idx, grp in enumerate(groups)
                if all(comp_of[qj] == idx for node in grp for qj in succ[node])]
    reachable_terminals = []
    stack, seen = [qi], {qi}
    while stack:
        node = stack.pop()
        if comp_of[node] in terminal:
            reachable_terminals.append(comp_of[node])
        for qj in succ[node]:
            if qj not in seen:
                seen.add(qj)
                stack.append(qj)
    target = set(groups[rng.choice(sorted(set(reachable_terminals)))])
    path = _bfs_edges(edges, qi, lambda n: n in target, rng=rng)
    prefix_edges.extend(path)
    anchor = path[-1][1][2] if path else qi

    # tour the component, witnessing every constraint
    tour = []
    pos = anchor
    for fc in constraints:
        if any(not fc.enabled(n) for n in target):
            seg = _bfs_edges(edges, pos, lambda n: not fc.enabled(n),
                             allowed=target, rng=rng)
            tour.extend(seg)
            pos = seg[-1][1][2] if seg else pos
            continue
        sources = {n for n in target
                   if any(qj in target and _edge_taken(g, fc, n, a, j)
                          for a, j, qj in edges[n])}
        seg = _bfs_edges(edges, pos, lambda n: n in sources,
                         allowed=target, rng=rng)
        tour.extend(seg)
        pos = seg[-1][1][2] if seg else pos
        a, j, qj = next((a, j, qj) for a, j, qj in edges[pos]
                        if qj in target and _edge_taken(g, fc, pos, a, j))
        tour.append((pos, (a, j, qj)))
        pos = qj
    if pos != anchor or not tour:
        if not tour:
            a, j, qj = next((a, j, qj) for a, j, qj in edges[anchor]
                            if qj in target)
            tour.append((anchor, (a, j, qj)))
            pos = qj
        if pos != anchor:
            tour.extend(_bfs_edges(edges, pos, lambda n: n == anchor,
                                   allowed=target, rng=rng))

    def steps(edge_list):
        return tuple((node, g.vector_for(node, a, j))
                     for node, (a, j, qj) in edge_list)

    return LassoComputation(steps(prefix_edges), steps(tour))


def random_lasso(g, rng, max_steps=12):
    """A random (not necessarily fair) computation: walk until a state
    repeats, close the cycle there."""
    edges = full_edges(g)
    qi = g.initial_state()
    walk = []
    visited = {qi: 0}
    for _ in range(max_steps):
        a, j, qj = rng.choice(edges[qi])
        walk.append((qi, g.vector_for(qi, a, j)))
        qi = qj
        if qi in visited:
            cut = visited[qi]
            return LassoComputation(tuple(walk[:cut]), tuple(walk[cut:]))
        visited[qi] = len(walk)
    # force closure with idle steps at the current state
    idle_player = next(a for a in range(g.player_count - 1)
                       if g.idle_move(a, qi) is not None)
    step = (qi, g.vector_for(qi, idle_player, g.idle_move(idle_player, qi)))
    return LassoComputation(tuple(walk), (step,))


def insert_stutters(g, lasso, rng):
    """A stutter-equivalent twin: idle steps spliced into prefix and cycle."""
    def pad(steps):
        out = []
        for qi, vec in steps:
            for _ in range(rng.randrange(0, 3)):
                player = rng.choice([a for a in range(g.player_count - 1)
                                     if g.idle_move(a, qi) is not None])
                out.append((qi, g.vector_for(qi, player, g.idle_move(player, qi))))
            out.append((qi, vec))
        return tuple(out)

    return LassoComputation(pad(lasso.prefix), pad(lasso.cycle))


def random_valid_play(net, rng, prefix_depth=6):
    """A random valid play: a bounded random firing prefix, then either a
    deadlock or a cycle touring a terminal SCC of the reachability graph
    firing every transition enabled inside it."""
    marking = net.initial
    prefix = []
    for _ in range(rng.randrange(0, prefix_depth + 1)):
        enabled = sorted(enabled_set(net, marking))
        if not enabled:
            break
        t = rng.choice(enabled)
        prefix.append(t)
        marking = fire(net, marking, t)

    graph = reachability_graph(net)
    index = graph.index
    succ = [[] for _ in graph.states]
    edge_map = [[] for _ in graph.states]
    for m1, t, m2 in graph.edges:
        succ[index[m1]].append(index[m2])
        edge_map[index[m1]].append((t, index[m2]))

    qi = index[marking]
    if not succ[qi]:
        return Play.from_sequence(prefix)

    groups = _sccs(len(graph.states), succ)
    comp_of = {}
    for idx, grp in enumerate(groups):
        for node in grp:
            comp_of[node] = idx
    terminals = {idx for idx, grp in enumerate(groups)
                 if all(comp_of[qj] == idx for node in grp for qj in succ[node])}

    def bfs(source, goal_test, allowed=None):
        seen = {source: None}
        frontier = [source]
        goal = None
        while frontier and goal is None:
            nxt = []
            for node in frontier:
                if goal_test(node):
                    goal = node
                    break
                options = list(edge_map[node])
                rng.shuffle(options)
                for t, qj in options:
                    if allowed is not None and qj not in allowed:
                        continue
                    if qj not in seen:
                        seen[qj] = (node, t)
                        nxt.append(qj)
            frontier = nxt
        if goal is None:
            return None
        labels = []
        node = goal
        while seen[node] is not None:
            prev, t = seen[node]
            labels.append(t)
            node = prev
        return list(reversed(labels)), goal

    into = bfs(qi, lambda n: comp_of[n] in terminals)
    labels, entry = into
    prefix.extend(labels)
    target = groups[comp_of[entry]]
    if len(target) == 1 and not succ[entry]:
        return Play.from_sequence(prefix)

    # tour: fire every transition enabled anywhere inside the component
    must_fire = sorted({t for node in target for t, qj in edge_map[node]
                        if qj in target})
    cycle = []
    pos = entry
    for t in must_fire:
        sources = {n for n in target if any(tt == t and qj in target
                                            for tt, qj in edge_map[n])}
        seg = bfs(pos, lambda n: n in sources, allowed=target)
        cycle.extend(seg[0])
        pos = seg[1]
        qj = next(qj for tt, qj in edge_map[pos] if tt == t and qj in target)
        cycle.append(t)
        pos = qj
    if pos != entry:
        seg = bfs(pos, lambda n: n == entry, allowed=target)
        cycle.extend(seg[0])
    return Play.from_sequence(prefix, cycle)


def random_play_walk(net, rng, max_steps=10):
    """A random firing sequence as a play, valid or not: a closed walk,
    cut where a marking repeats, when one comes within ``max_steps``;
    otherwise a finite play, whose last event is trailing half the time."""
    marking, fired, seen = net.initial, [], {net.initial: 0}
    for _ in range(max_steps):
        enabled = sorted(enabled_set(net, marking))
        if not enabled:
            break
        t = rng.choice(enabled)
        fired.append(t)
        marking = fire(net, marking, t)
        if marking in seen:
            return Play.from_sequence(fired[:seen[marking]], fired[seen[marking]:])
        seen[marking] = len(fired)
    if fired and rng.random() < 0.5:
        return Play(tuple((t,) for t in fired[:-1]), (), (fired[-1],))
    return Play.from_sequence(fired)


def merge_steps(play, rng):
    """The same play with random runs of consecutive prefix steps merged
    into one ``+`` step."""
    steps = []
    for step in play.steps:
        if steps and rng.random() < 0.5:
            steps[-1] += step
        else:
            steps.append(step)
    return Play(tuple(steps), play.cycle, play.trailing)


# -- bounded net-side play checking -------------------------------------------------

_PENDING, _SAT, _FAILED = 0, 1, 2


def monitor_start(pf, props):
    return monitor_step(pf, _PENDING, props)


def monitor_step(pf, mon, props):
    if pf.op == "G":
        if mon == _FAILED:
            return _FAILED
        return _PENDING if holds_in(pf.left, props) else _FAILED
    if mon in (_SAT, _FAILED):
        return mon
    if holds_in(pf.right, props):
        return _SAT
    if not holds_in(pf.left, props):
        return _FAILED
    return _PENDING


def some_consistent_play_refutes(net, bp, strategies, pf, viable, horizon=8):
    """Exhaustive enumeration of consistent play prefixes on the unfolding
    prefix: does any refute the path formula within the horizon?

    Moves are single events per step: any enabled uncontrollable event, or
    a user event selected by that user's strategy at the current cut.
    ``viable`` is the set of markings from which a consistent play can
    continue at all; prefixes are only counted while they stay inside it,
    since every prefix of a consistent play does.
    """
    strategy_of = {s.owner: s for s in strategies}
    memo = {}

    def walk(cut, mon, depth):
        if mon == _FAILED:
            return True
        if depth == 0:
            return False
        props = bp.mu(cut)
        key = (props, mon, depth)
        if key in memo:
            return memo[key]
        result = False
        for eid in enabled_events(bp, cut):
            label = bp.events[eid].label
            owner = net.location_of(label)
            if net.is_controllable(label):
                strategy = strategy_of.get(owner)
                if strategy is None or label not in strategy.at(props):
                    continue
            nxt = cut_step(bp, cut, eid)
            if bp.mu(nxt) not in viable:
                continue
            if walk(nxt, monitor_step(pf, mon, bp.mu(nxt)), depth - 1):
                result = True
                break
        memo[key] = result
        return result

    start = initial_cut(bp)
    if bp.mu(start) not in viable:
        return False
    return walk(start, monitor_start(pf, bp.mu(start)), horizon)


def check_first_profile_lasso(g, constraints, pf, lasso, q0):
    """An unsatisfied goal's evidence, checked without the solver: a lasso
    from ``q0`` that is fair, violates the path formula ``pf``, and follows
    the canonically first profile (every user plays move 0 at every step,
    scheduled or not)."""
    steps = lasso.prefix + lasso.cycle
    assert steps[0][0] == q0
    assert lasso_is_fair(g, constraints, lasso).fair
    assert not path_satisfies([g.w(qi) for qi, _ in lasso.prefix],
                              [g.w(qi) for qi, _ in lasso.cycle], pf)
    assert all(vec[a] == 0 for _, vec in steps for a in range(g.user_count))


def reference_sweep(game, states):
    """The enumerate sweep without backjumping: every profile in canonical
    order, as ``itertools.product`` lists them, checked on ``game`` against
    every state of ``states`` not yet won, until none is left.  Returns each
    state's first winning flat profile, or None, keyed by the state.  It
    calls ``solver._product`` through the module, so a test that counts
    the solver's product walks counts these too."""
    witnesses = dict.fromkeys(states)
    pending = [game.start(qi) for qi in states]
    for flat in itertools.product(*map(range, _slot_sizes(game.g))):
        won = solver._product(game, flat, pending)[0]
        witnesses.update((root[0], flat) for root, w in zip(pending, won) if w)
        pending = [root for root, w in zip(pending, won) if not w]
        if not pending:
            break
    return witnesses


# -- the pairwise definitions of B-cuts, their order, conflict and runs ------------

def reference_consumers(bp):
    """condition -> the events whose pre-set holds it."""
    consumers = {c: set() for c in bp.conditions}
    for e in bp.events.values():
        for c in e.pre:
            consumers[c].add(e.eid)
    return {c: frozenset(s) for c, s in consumers.items()}


def reference_causally_le(bp, x, y, consumers):
    """x F* y."""
    if x == y:
        return True
    if x in bp.events:
        return x in bp.event_past(y)
    # x is a condition: x F+ y iff one of its consumers lies F* below y.
    return any(e in bp.event_past(y) for e in consumers[x])


def reference_in_conflict(bp, x, y):
    """x natural-sign y: two distinct events in their pasts share a precondition."""
    past_x = bp.event_past(x)
    past_y = bp.event_past(y)
    for e1 in past_x:
        pre1 = bp.events[e1].pre
        for e2 in past_y:
            if e1 != e2 and pre1 & bp.events[e2].pre:
                return True
    return False


def reference_relation(bp, x, y, consumers):
    """Exactly one of: equal, causal_le, causal_ge, conflict, concurrent."""
    if x == y:
        return "equal"
    if reference_causally_le(bp, x, y, consumers):
        return "causal_le"
    if reference_causally_le(bp, y, x, consumers):
        return "causal_ge"
    if reference_in_conflict(bp, x, y):
        return "conflict"
    return "concurrent"


def reference_is_cut(bp, conds, consumers):
    """Pairwise concurrent and maximal among the prefix's conditions."""
    conds = frozenset(conds)
    if not conds or any(c not in bp.conditions for c in conds):
        return False
    members = sorted(conds)
    for a, b in itertools.combinations(members, 2):
        if reference_relation(bp, a, b, consumers) != "concurrent":
            return False
    for other in bp.conditions:
        if other in conds:
            continue
        if all(reference_relation(bp, other, c, consumers) == "concurrent"
               for c in members):
            return False
    return True


def reference_cut_order(bp, cut1, cut2, consumers):
    """Compare two B-cuts: lt, gt, eq or incomparable; None when either
    is not a B-cut."""
    for cut in (cut1, cut2):
        if not reference_is_cut(bp, cut, consumers):
            return None
    if cut1 == cut2:
        return "eq"

    def less(a, b):
        if not all(any(reference_causally_le(bp, x, y, consumers) for x in a)
                   for y in b):
            return False
        if not all(any(reference_causally_le(bp, x, y, consumers) for y in b)
                   for x in a):
            return False
        return any(x != y and reference_causally_le(bp, x, y, consumers)
                   for x in a for y in b)

    if less(cut1, cut2):
        return "lt"
    if less(cut2, cut1):
        return "gt"
    return "incomparable"


def reference_is_run(bp, consumers):
    """Conflict-free: no condition feeds two events."""
    return all(len(cs) <= 1 for cs in consumers.values())


# -- the two-pass rule for a play's addable events --------------------------------

def reference_play_diagnostics(net, play):
    """:func:`validate_play`'s diagnostics by the two-pass rule, for a play
    whose cycle returns to its start marking.  Materialise the prefix and
    two passes of the cycle; a condition created in the prefix or the first
    pass survives forever when nothing in the whole run consumes it."""
    run = materialise_play(net, Play(play.steps, play.cycle * 2, play.trailing)).bp
    consumers = reference_consumers(run)
    first_pass = set(itertools.islice(
        run.events, sum(map(len, play.steps)) + len(play.cycle)))
    survivors = {c.label for c in run.conditions.values()
                 if not consumers[c.cid] and
                 (not play.cycle or c.producer is None or c.producer in first_pass)}
    diags = [f"uncontrollable event {t} addable" for t in sorted(net.transitions)
             if not net.is_controllable(t) and net.pre(t) <= survivors]
    if not play.cycle:
        diags += [f"controllable event {t} addable at the final cut"
                  for t in sorted(net.transitions)
                  if net.is_controllable(t) and net.pre(t) <= survivors]
    return diags + [f"event {t} not covered by any cut" for t in play.trailing]
