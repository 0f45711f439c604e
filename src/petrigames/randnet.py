"""Deterministic random distributed nets for the property-test corpus.

Rejection sampling: draw a candidate, keep it only when it is a valid,
contact-free distributed net whose reachability graph, profile space and
bounded unfolding prefix all stay small enough for the exhaustive
engines.  The same seed always yields the same net.  The reachability
search validates each candidate once, and never sorts the ones it rejects.
"""

from __future__ import annotations

import random

from .errors import BoundExceeded, InputError
from .game import build_game
from .nets import NetSystem, reachability_graph
from .solver import profile_space
from .unfold import _unfold


def random_net(seed: int, max_places: int = 6, max_transitions: int = 6,
               max_users: int = 2, max_states: int = 48,
               max_profile_space: int = 600, max_prefix_size: int = 1500,
               attempts: int = 500) -> NetSystem:
    """A validated, contact-free distributed net, deterministic per seed.

    Draws candidates until eight pass all checks (or attempts run out)
    and keeps the richest one, scored by reachable states and user
    choices, so the corpus is not dominated by near-trivial nets.
    """
    rng = random.Random(seed)
    best = None
    best_score = -1
    found = 0
    for attempt in range(attempts):
        if found >= 8:
            break
        net = _draw(rng, max_places, max_transitions, max_users)
        if net is None:
            continue
        try:
            # the search validates the draw: an invalid one raises InputError
            graph = reachability_graph(net, max_states=max_states)
        except (BoundExceeded, InputError):
            continue
        if len(graph) < 3 or graph.contact is not None:
            continue
        space = profile_space(build_game(net, graph=graph))
        if not 2 <= space <= max_profile_space:
            continue
        try:
            _unfold(net, 8, max_prefix_size)      # the graph showed no contact
        except BoundExceeded:
            continue
        found += 1
        score = len(graph) * 8 + min(space, 64)
        if score > best_score:
            best, best_score = net, score
    if best is None:
        raise BoundExceeded(
            f"no acceptable random net after {attempts} attempts (seed {seed})",
            attempts)
    return best


def _draw(rng: random.Random, max_places: int, max_transitions: int,
          max_users: int):
    k = rng.randint(1, max_users)
    locations = ["env"] + [f"u{i}" for i in range(1, k + 1)]
    n_places = rng.randint(min(3, max_places), max_places)
    places = [f"p{i}" for i in range(n_places)]
    # the weights 2, 1, ..., 1 as cumulative weights, in one call for all
    # places: the same ``random()`` calls as one weighted call per place
    assignment = dict(zip(places, rng.choices(
        locations, cum_weights=range(2, k + 3), k=n_places)))
    ordered = sorted(places)
    by_location: dict[str, list] = {loc: [] for loc in locations}
    for p in ordered:
        by_location[assignment[p]].append(p)

    n_trans = rng.randint(2, max_transitions)
    transitions = []
    flow = []
    while len(transitions) < n_trans:
        i = len(transitions)
        pre_size = rng.choices((1, 2), cum_weights=(4, 5))[0]
        eligible = [loc for loc in locations if len(by_location[loc]) >= pre_size]
        if not eligible:
            return None
        loc = rng.choice(eligible)
        t = f"t{i}"
        transitions.append(t)
        assignment[t] = loc
        pre = rng.sample(by_location[loc], pre_size)
        # keeping |post| = |pre| most of the time avoids draining the net
        post_size = rng.choices((pre_size, 1, 2), cum_weights=(4, 5, 6))[0]
        pool = [p for p in ordered if p not in pre] or places
        post = rng.sample(pool, min(post_size, len(pool)))
        for p in pre:
            flow.append((p, t))
        for p in post:
            flow.append((t, p))
        # toggles (a matching reverse transition) keep nets live and cyclic
        if len(transitions) < n_trans and len(pre) == len(post) == 1 \
                and rng.random() < 0.6:
            back = f"t{len(transitions)}"
            transitions.append(back)
            assignment[back] = assignment[post[0]]
            flow.append((post[0], back))
            flow.append((back, pre[0]))

    initial = [p for p in places if rng.random() < 0.5]
    if not initial:
        initial = [rng.choice(places)]
    return NetSystem(f"rnd{rng.getrandbits(24)}", places, transitions, flow,
                     initial, locations, assignment)
