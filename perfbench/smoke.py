"""Smoke test of the benchmark itself (not part of the repository's test suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/smoke.py

It takes about two minutes: one short run of every workload, untraced and
traced, plus the harness's failure accounting on a corrupted share.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import WORKLOADS, make_job  # noqa: E402
from worker import Cycles, LibraryOps  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "smoke"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_reports_every_metric(workload: str, trace: int) -> None:
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    if trace:
        assert result["metrics"]["codec.repair_symbols_per_formula"]["value"] == 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bit_flipped_share_counts_as_failed_op() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    job = make_job(WORKLOADS["bulk-msr-p257"], 7, SCRATCH)
    cycles = Cycles(job, LibraryOps(job))
    cycle = job["warmup"]
    cycles.run(cycle)
    assert [r["ok"] for r in cycles.records] == [True, True, True]

    copy = SCRATCH / "flipped"
    shutil.copytree(cycles.shares, copy)
    share = copy / f"node{cycle['observers'][0]:03d}.share"
    raw = bytearray(share.read_bytes())
    raw[len(raw) // 2] ^= 1  # inside a full stripe, not the padded last one
    share.write_bytes(bytes(raw))
    data = Path(cycle["file"]).read_bytes()
    record = cycles.recover(copy / "manifest.txt", copy, cycle["observers"], data)
    assert not record["ok"]
    assert sum(not r["ok"] for r in cycles.records) / len(cycles.records) == 0.25

    cycles.run(cycle)  # the harness goes on after a failed op
    assert [r["ok"] for r in cycles.records[-3:]] == [True, True, True]
    shutil.rmtree(SCRATCH)


def test_refuses_to_run_without_the_program() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "churn-cutset-gf256", "--seed", "1", "--seconds", "1",
                  cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
    shutil.rmtree(SCRATCH)
