"""Smoke test of the benchmark at tiny sizes (chain(1), a 5-net corpus,
unfold depth 2).

Every workload runs untraced and traced: each prints every metric
BENCHMARK.json names, with its unit, nothing fails, and the traced
run's report digest equals the untraced run's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import chain  # noqa: E402
from petrigames import fixtures, parse_net, reachability_graph  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_prints_every_metric(workload):
    lines = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(ROOT, workload, trace)
        assert done.returncode == 0, done.stderr
        lines[trace] = done.stdout.splitlines()
        result = json.loads(lines[trace][-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], done.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert any(line.endswith("failed_ratio 0") for line in lines[trace])
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    digest = next(line.split()[-1] for line in lines[0]
                  if line.startswith("report digest sha256:"))
    assert f"report digest sha256 (untraced): {digest}" in lines[1]
    assert f"report digest sha256 (traced):   {digest}" in lines[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "chain-solve", 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_counts(k):
    graph = reachability_graph(parse_net(chain.chain(k, seed=k).text))
    assert (len(graph.states), len(graph.edges)) == (chain.states(k), chain.edges(k))


#: chain(1)'s logical names -> the README's F4 names
F4_NAMES = {"chain1": "F4", "u0": "u", "@u0": "@u",
            "e0": "p0", "e1": "p1", "c0": "p2", "x0": "p3", "y0": "p4",
            "te01": "t0", "te10": "t1", "b0": "t2", "a0": "t3", "rb0": "t4", "ra0": "t5"}


def test_chain1_is_f4_up_to_renaming():
    c = chain.chain(1, seed=7)
    to_f4 = {c.names.get(name, name): f4 for name, f4 in F4_NAMES.items()}
    text = "\n".join(" ".join(to_f4.get(token, token) for token in line.split())
                     for line in c.text.splitlines())
    assert parse_net(text) == parse_net(fixtures.FIG4)
