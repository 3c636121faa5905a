"""Self-tests of the benchmark: generator, output checks, tracer, and names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.fixture(scope="module")
def interval(tmp_path_factory) -> dict:
    return gen.interval_cover(sys.executable, ENV, tmp_path_factory.mktemp("raw"))


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, interval, tmp_path):
    written = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        d = tmp_path / name
        d.mkdir()
        args, _ = gen.make_inputs(workload, seed, interval, d)
        written.append((_files(d), [a.replace(str(d), "") for a in args]))
    assert written[0] == written[1]
    assert written[0] != written[2]


def test_relabelling_preserves_checked_invariants(interval, tmp_path):
    seen = set()
    for seed in range(4):
        gen.make_inputs("realize-render", seed, interval, tmp_path)
        space = json.loads((tmp_path / "space.json").read_text())
        assert set(space["points"]).isdisjoint(interval["points"])
        seen.add(repr(check.bar_counts(space, 4)))
    assert seen == {repr(check.bar_counts(interval, 4))}


def test_known_answers_of_the_interval_cover(interval):
    # Level sizes printed by `finsite realize --example`-style runs at cap 3.
    assert check.bar_counts(interval, 3) == [44, 279, 1160, 4025]


def _job(args: list[str], out: Path) -> dict:
    subprocess.run([sys.executable, "-m", "finsite.cli", *args, "--out", str(out)],
                   env=ENV, check=True, timeout=120)
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def outputs(interval, tmp_path_factory) -> dict:
    """Small real outputs of each command, with the facts their checks need."""
    d = tmp_path_factory.mktemp("jobs")
    found = {}
    args, facts = gen.make_inputs("realize-render", 3, interval, d)
    small = args[: args.index("--dim-cap")] + ["--dim-cap", "2", "--format", "json"]
    found["realize"] = (_job(small, d / "realize.json"), facts)
    args, facts = gen.make_inputs("compare-maps", 3, interval, d)
    found["compare"] = (_job(args, d / "compare.json"), facts)
    return found


def _flip_betti(out):
    out["homology"][0]["betti"] = 2


def _drop_simplex(out):
    out["realization"]["simplices"]["1"].pop()


def _wrong_counts(out):
    out["counts"][2] -= 1


def _not_identity(out):
    out["degrees"][0]["matrix"] = [[-1]]


def _bad_verdict(out):
    out["verdict"]["ok"] = False


@pytest.mark.parametrize(
    "command, corrupt",
    [
        ("realize", _flip_betti),
        ("realize", _drop_simplex),
        ("realize", _wrong_counts),
        ("compare", _not_identity),
        ("compare", _bad_verdict),
    ],
)
def test_check_accepts_real_output_and_rejects_a_corrupted_one(outputs, command, corrupt):
    out, facts = outputs[command]
    assert check.check_output(out, facts) == []
    bad = json.loads(json.dumps(out))
    corrupt(bad)
    assert check.check_output(bad, facts)


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", -1, 0.0, 10.0], ["homology.snf", 0, 1.0, 4.0],
             ["canon.csorted", 1, 2.0, 3.0], ["trace.count", 0, 4.0, 4.5]]
    assert tracing.self_times(spans) == [6.5, 2.0, 1.0, 0.5]


def _result(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_printed_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _result("--workload", "realize-render", "--seed", "1", "--seconds", "0",
                       "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _result("--workload", "realize-render", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
