"""The small scope as an oracle corpus: every distributed net with 2 or 3
places, 1 to 3 transitions and 1 or 2 users, up to renaming
(``helpers.small_scope_nets``).  Tier-1 cross-checks the engines on a
fixed slice, every tenth net in canonical order; a CI step runs the
whole scope."""

import collections
import hashlib

from helpers import check_small_scope_net, small_scope_nets
from petrigames.nets import format_net, reachability_graph, validate_net


def test_small_scope_enumerates_a_pinned_set_of_nets():
    # the count per (places, users) and a digest over every net's text pin
    # the enumeration; each net is valid and contact-free for the library
    # too, and reaches at least 2 states
    nets = small_scope_nets()
    shapes = collections.Counter((len(net.places), len(net.users)) for net in nets)
    assert shapes == {(2, 1): 15, (2, 2): 4, (3, 1): 2229, (3, 2): 1319}
    assert hashlib.sha256("".join(map(format_net, nets)).encode()).hexdigest() \
        == "1cc67501c8a616970f270f573f820c8d56d26b8750db38e1d771c534e40cc53b"
    for net in nets:
        assert validate_net(net) == [], net.name
        graph = reachability_graph(net)
        assert graph.contact is None and len(graph) >= 2, net.name


def test_engines_agree_on_every_tenth_small_scope_net():
    # 'both' at every state, and the fixpoint labelling against the
    # reference sweep at every state (helpers.check_small_scope_net)
    assert sum(map(check_small_scope_net, small_scope_nets()[::10])) == 4629
