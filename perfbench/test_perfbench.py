"""Self-tests of the benchmark (about three minutes; not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import combinations

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.PER_LAYER


def test_orthant_set_matches_brute_force_oracle():
    """The frozen orthant achievable set, re-derived from all 2^11 patterns."""
    m = workloads.load_invsp()
    fam = m.affinefamily.build_coefficient_family(m.groups.parse_group("scalar:3:2"), 3)
    n = len(fam.slots)
    values = set()
    for k in range(n + 1):
        for zero_set in combinations(range(n), k):
            if n - k not in values and m.affinefamily.pattern_feasible(
                fam, zero_set, orthant=True
            ).feasible:
                values.add(n - k)
    assert sorted(values) == workloads.SPARSITY_ACHIEVABLE
    assert sorted(set(range(n + 1)) - values) == workloads.SPARSITY_ABSENT


def test_tracer_self_time_and_uninstall():
    m = workloads.load_invsp()
    g = m.groups.parse_group("gamma7")
    F = m.construct.basic_poly_closed(g)
    H = m.polycore.Polynomial(3, {(1, 1, 1): 7})
    originals = (m.gapsearch.tensor_step, m.polycore.Polynomial.__mul__, m.polycore.rat)
    tracer = Tracer()
    with tracer:
        assert m.gapsearch.tensor_step is not originals[0]
        assert m.polycore.Polynomial.__rmul__ is m.polycore.Polynomial.__mul__
        m.transform.tensor_step(F, H)  # not recorded: no operation is current
        tracer.op = "step"
        m.transform.tensor_step(F, H)
        tracer.op = None
    assert (m.gapsearch.tensor_step, m.polycore.Polynomial.__mul__, m.polycore.rat) == originals
    summary = tracer.summary()
    step = summary["transform.tensor_step"]
    index = next(i for i, span in enumerate(tracer.spans) if span[0] == "transform.tensor_step")
    children = sum(end - start for _, start, end, parent, _ in tracer.spans if parent == index)
    assert step["calls"] == 1
    assert step["self_s"] == pytest.approx(step["s"] - children, abs=1e-9)
    assert summary["polycore.Polynomial.__mul__"]["term_pairs"] == 17
    assert all(op == "step" for *_, op in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_reports_identical_to_untraced(workload):
    """A traced run checks every traced pass against an untraced pass."""
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert "traced reports identical to untraced: yes" in proc.stdout
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.PER_LAYER


def test_same_seed_same_inputs():
    m = workloads.load_invsp()
    assert workloads.roundtrip_inputs(m, 5) == workloads.roundtrip_inputs(m, 5)
    assert workloads.roundtrip_inputs(m, 5) != workloads.roundtrip_inputs(m, 6)


def test_compare_refuses_mixed_backends(tmp_path):
    for backend in ("fraction", "gmpy2"):
        d = tmp_path / backend
        d.mkdir()
        record = {"env": {"backend": backend, "workload": "sparsity-cubic"},
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        (d / "sparsity-cubic-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "fraction"), str(tmp_path / "gmpy2")]) == 2
    assert compare.main([str(tmp_path / "fraction"), str(tmp_path / "fraction")]) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "sparsity-cubic", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
