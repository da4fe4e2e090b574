"""Tests of the benchmark harness itself, on a reduced rung set.

    python3 -m pytest -q perfbench/tests
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402

REDUCED = ["--rungs", "kp,group:S3", "--probe", "none"]
SEED = 990001


def bench(workload, trace, *extra, seed=SEED):
    """Run run.py; (result line, run record written to .bench_out)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            *REDUCED, *extra]
    if workload == "biinner":
        argv += ["--samples", "20"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def declared(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("workload", ["structure", "verify", "biinner"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["max_dim_verified"]["value"] == 8
        assert record["versions"]["numpy"] == np.__version__
        assert record["seed"] == SEED and record["nproc"] >= 1


def test_traced_pass_reports_the_layers_it_crosses():
    m = bench("biinner", 1)[0]["metrics"]
    assert m["biinner.in_identity_component.calls"]["value"] == 40
    assert 0 < m["biinner.in_identity_component.true_ratio"]["value"] < 1
    assert m["blockalg.elements"]["value"] > 1000
    assert m["lapack.schur.calls"]["value"] > 0
    assert m["cli.calls"]["value"] == 2


@pytest.mark.parametrize("workload,rung,key,wrong", [
    ("verify", "kp", "dual_blocks", [1, 1, 1, 1, 1, 1, 1, 1]),
    ("structure", "kp", "cocentre_dim", 4),
    ("biinner", "group:S3", "lie_dim", 2),
])
def test_wrong_reference_verdict_is_a_failed_untimed_operation(
        tmp_path, workload, rung, key, wrong):
    ref = json.loads((BENCH / "reference.json").read_text())
    ref[workload]["rungs"][rung][key] = wrong
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    result, record = bench(workload, 0, "--reference", str(path))
    passes = len(record["pass_wall_s"])
    assert result["correct"] is False
    assert result["failed"] == passes          # the bad verdict, once per pass
    bad = [op for op in record["ops"] if not op["ok"]]
    assert {op["rung"] for op in bad} == {rung}
    assert all(any(key in p for p in op["problems"]) for op in bad)
    timed = sum(op["seconds"] for op in record["ops"] if op["ok"])
    assert sum(record["pass_wall_s"]) == pytest.approx(timed)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(
        statistics.fmean(record["pass_wall_s"]))
    assert result["metrics"]["completed_ratio"]["value"] < 1


def test_requested_bytes_of_a_refused_numpy_allocation():
    with pytest.raises(MemoryError) as err:
        np.empty(2 ** 45, dtype=complex)
    assert worker._requested_bytes(err.value) == 2 ** 49


def test_tracer_rebinds_every_import_and_restores_them():
    import fqg
    from fqg import cli, duality, hopf, io, kacpaljutkin
    original = hopf.verify_axioms
    t = tracer.Tracer()
    t.install()
    try:
        for mod in (fqg, cli, duality, hopf, io, kacpaljutkin):
            assert mod.verify_axioms is hopf.verify_axioms
        assert hopf.verify_axioms is not original
        hopf.verify_axioms(hopf.function_algebra(fqg.cyclic(2)))
    finally:
        t.uninstall()
    assert cli.verify_axioms is original and hopf.verify_axioms is original
    names = [s[0] for s in t.spans]
    assert "hopf.verify_axioms" in names and "hopf.construct" in names


def test_self_time_subtracts_wrapped_children():
    t = tracer.Tracer()
    t.spans = [["cli", 0.0, 10.0, -1, "r"],
               ["hopf.verify_axioms", 1.0, 4.0, 0, "r"],
               ["hopf.verify_axioms", 2.0, 3.0, 1, "r"],
               ["duality.build_dual", 5.0, 6.0, 0, "r"]]
    m = t.layer_metrics()
    assert m["cli.s"] == 10.0 and m["cli.self_s"] == 6.0
    assert m["hopf.verify_axioms.s"] == 3.0          # nested call counted once
    assert m["hopf.verify_axioms.self_s"] == 3.0
    assert m["hopf.verify_axioms.calls"] == 2


def test_without_sources_the_benchmark_refuses(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    for f in BENCH.glob("*.json"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
