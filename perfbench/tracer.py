"""Spans around the library's public functions, installed from outside.

:meth:`Tracer.install` replaces each traced function in every
``petrigames`` module namespace that holds it, so calls the library makes
to itself (``build_game -> require_contact_free -> reachability_graph``)
are captured too.  Every call becomes a span: name, start, end, parent
span and op id, kept in flat arrays and written out after the run.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

#: module -> public functions wrapped, by layer.
TRACED = {
    "cli": ("run",),
    "nets": ("parse_net", "validate_net", "reachability_graph",
             "check_contact_free", "require_contact_free", "dot_reachability"),
    "formulas": ("parse_formula",),
    "game": ("build_game", "build_fairness", "play_to_computations",
             "lasso_is_fair", "computation_to_play", "format_lasso",
             "parse_lasso", "dot_game", "fairness_table"),
    "solver": ("model_check", "synthesize", "synthesize_enumerate",
               "synthesize_fixpoint", "verify_profile", "format_profile"),
    "unfold": ("unfold_prefix", "validate_play", "parse_play", "format_play",
               "dot_prefix"),
}


def _graph_size(counts, graph):
    counts["nets.states"] += len(graph.states)
    counts["nets.edges"] += len(graph.edges)


def _constraints(counts, constraints):
    counts["game.constraints"] += len(constraints)


def _computations(counts, computations):
    counts["game.computations"] += len(computations)


def _verified(counts, outcome):
    counts["solver.verify_profile.ok"] += bool(outcome.ok)


def _prefix(counts, bp):
    counts["unfold.prefix_elements"] += len(bp.conditions) + len(bp.events)


#: work counts read off return values, at the same boundaries as the spans.
OBSERVERS = {
    "nets.reachability_graph": _graph_size,
    "game.build_fairness": _constraints,
    "game.play_to_computations": _computations,
    "solver.verify_profile": _verified,
    "unfold.unfold_prefix": _prefix,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        parent, names, ops = self.parent, self.name, self.op
        start, end, stack = self.start, self.end, self._stack
        observe = OBSERVERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(idx)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a petrigames module holds it."""
        wrappers = {}
        for layer, functions in TRACED.items():
            module = sys.modules[f"petrigames.{layer}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original,
                                          self._wrap(f"{layer}.{fn_name}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "petrigames" and not mod_name.startswith("petrigames."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def aggregate(self) -> dict:
        """name -> (calls, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sid in range(n):
            name = self.names[self.name[sid]]
            calls[name] += 1
            self_s[name] += self.end[sid] - self.start[sid] - child[sid]
        return {name: (calls[name], self_s[name]) for name in self.names}

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, parent, op, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart\tend\n")
            for sid in range(len(self.start)):
                out.write(f"{sid}\t{self.parent[sid]}\t{self.op[sid]}\t"
                          f"{self.names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                          f"{self.end[sid]:.9f}\n")
