"""Tests of the benchmark itself: smoke runs, the gate, digests, determinism.

    python3 -m pytest -q blpbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, root=ROOT):
    cmd = [sys.executable, str(root / "blpbench" / "run.py"), "--seconds", "0.2",
           "--smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_all_runs_every_workload_in_one_command():
    proc = bench("--workload", "all", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in workloads.WORKLOADS
                                      for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(name):
    proc = bench("--workload", name, "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (ROOT / ".bench_build" / "blpbench" / f"spans-{name}-3.jsonl.gz").is_file()


def test_counts_and_digests_repeat_across_runs():
    results = []
    for _ in range(2):
        proc = bench("--workload", "winmove", "--seed", "4", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        saved = json.loads((ROOT / ".bench_build" / "blpbench" /
                            "result-winmove-4-trace1.json").read_text())
        counts = {k: m["value"] for k, m in saved["metrics"].items()
                  if m["unit"] in ("count", "bytes")}
        results.append((counts, saved["digest"]))
    assert results[0] == results[1]
    assert results[0][0]["engine.steps"] > 0


def _flip(kind, out):
    """Change one value in a captured output."""
    if kind == "ground":  # the first fact becomes false
        first = out.splitlines()[0]
        assert first.endswith(")."), first
        return out.replace(first, first[:-1] + " <- #f.", 1)
    if kind == "check":
        return out.replace("yes", "no", 1) if "yes" in out else out.replace("no", "yes", 1)
    lines = out.splitlines(keepends=True)
    row = 1 if lines[0].startswith("atom\t") else 0
    value = lines[row].rstrip("\n")[-1]
    lines[row] = lines[row].rstrip("\n")[:-1] + {"T": "F"}.get(value, "T") + "\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """One gated pass over every smoke workload."""
    cli = run.import_blp()
    import gate

    out = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 5, smoke=True)
        workdir = tmp_path_factory.mktemp(name)
        workload.write(workdir)
        results = run.run_pass(cli, workload, workdir).results
        failures, _ = gate.check(workload, results)
        assert failures == {}
        out[name] = (workload, results)
    return gate, out


KINDS = [("winmove", "fixU"), ("winmove", "compare"), ("winmove", "wfs"),
         ("winmove", "kk"), ("closure", "ground"), ("corpus", "consensus"),
         ("corpus", "check"), ("stable", "stable-enum")]


@pytest.mark.parametrize("name,kind", KINDS)
def test_one_flipped_value_trips_the_gate(captured, name, kind):
    gate, by_name = captured
    workload, results = by_name[name]
    i = next(k for k, r in enumerate(workload.requests) if r.kind == kind)
    status, out, err = results[i]
    corrupted = list(results)
    corrupted[i] = (status, _flip(kind, out), err)
    assert corrupted[i] != results[i]
    failures, _ = gate.check(workload, corrupted)
    assert list(failures) == [i]


def test_failed_request_counts_as_failure(captured):
    gate, by_name = captured
    workload, results = by_name["corpus"]
    failures, _ = gate.check(workload, [(1, "", "error: boom")] + results[1:])
    assert list(failures) == [0]


def test_wrong_digest_is_a_failure_not_a_crash(tmp_path, monkeypatch, capsys):
    pinned = tmp_path / "digests.json"
    pinned.write_text(json.dumps({"corpus/3/smoke": "0" * 64}))
    monkeypatch.setattr(run, "DIGESTS", pinned)
    status = run.main(["--workload", "corpus", "--seed", "3", "--seconds", "0.2",
                       "--trace", "0", "--smoke"])
    assert status == 1
    stdout = capsys.readouterr().out
    result = last_json(stdout)
    assert result["correct"] is False and result["failed"] >= 1
    assert "MISMATCH" in stdout


def test_an_unpinned_seed_is_marked_in_the_saved_result():
    proc = bench("--workload", "stable", "--seed", "999", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "UNPINNED" in proc.stdout
    saved = json.loads((ROOT / ".bench_build" / "blpbench" /
                        "result-stable-999-trace0.json").read_text())
    assert saved["digest_pinned"] is False


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "blpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "corpus", "--seed", "1", "--trace", "0",
                 cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
