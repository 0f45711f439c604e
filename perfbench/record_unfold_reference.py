"""Record the corpus-unfold reference: prefix element counts per net.

    python3 perfbench/record_unfold_reference.py

Writes ``unfold_reference.json``, mapping ``<net digest>:<depth>`` to
``[conditions, events]`` for ``random_net(s)`` over the seed ranges
below, at the full and the tiny workload depth.  The committed file was
recorded from the library before any optimisation; re-record it only
when a change is meant to alter unfoldings.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from petrigames.nets import format_net, parse_net  # noqa: E402
from petrigames.randnet import random_net  # noqa: E402
from petrigames.unfold import unfold_prefix  # noqa: E402
from workloads import SIZES, UNFOLD_REFERENCE, net_digest  # noqa: E402

#: (first seed, last seed + 1, depth): corpus windows starting at seeds
#: 0..1199 (full) and 0..49 (tiny) are covered.
RANGES = ((0, 1200 + SIZES["full"]["corpus"], SIZES["full"]["depth"]),
          (0, 50 + SIZES["tiny"]["corpus"], SIZES["tiny"]["depth"]))


def main() -> int:
    reference = {}
    for first, stop, depth in RANGES:
        for seed in range(first, stop):
            text = format_net(random_net(seed))
            bp = unfold_prefix(parse_net(text), depth)
            reference[f"{net_digest(text)}:{depth}"] = [len(bp.conditions), len(bp.events)]
    UNFOLD_REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n",
                                encoding="utf-8")
    print(f"{len(reference)} entries written to {UNFOLD_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
