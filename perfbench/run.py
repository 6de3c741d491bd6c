"""Benchmark of cascade-codes: encode, repair and recover files end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs come from the seed alone. Each workload runs in fresh worker
processes: several set-up-only ones, then one that measures for S seconds.
Every op's output is checked bit for bit outside the timed region. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics, or with --trace 1 the
per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spans import TOP_LEVEL
from workloads import WORKLOADS, make_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 6  # set-up-only workers; the measuring worker adds one more sample
RUN_BUDGET_S = 170  # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "PYTHONHASHSEED")

END_TO_END = {
    "encode_kib_s": "KiB/s", "repair_kib_s": "KiB/s", "recover_kib_s": "KiB/s",
    "encode_p50_ms": "ms", "repair_p50_ms": "ms", "recover_p50_ms": "ms",
    "disk_bytes_per_file_byte": "B/B", "wire_bytes_per_file_byte": "B/B",
    "setup_s": "s", "peak_rss_mib": "MiB",
}

# layer name in the trace -> the per-layer metrics read from its calls and self time
SPAN_METRICS = {
    "fqlinalg.rref": ("calls", "self_s"),
    "fqlinalg.mat_mul": ("calls", "self_s"),
    "fqlinalg.field_elementwise": ("calls", "self_s"),
    "combin.subset_rank": ("calls",),
    "detseg.repair_encoder": ("calls", "self_s"),
    "detseg.build_pre_injection": ("calls", "self_s"),
    "cascade.build_tree": ("calls",),
    "cascade.build_super_message": ("calls", "self_s"),
    "cascade.injection_matrix": ("self_s",),
    "codec.encode": ("self_s",),
    "codec.helper_repair_message": ("calls", "self_s"),
    "codec.regenerate_node": ("self_s",),
    "codec.recover_data": ("calls", "self_s"),
    "codec.repair_message_serde": ("self_s",),
    "storlab.share_write": ("self_s",),
    "storlab.share_read": ("self_s",),
}
PER_LAYER = {f"{layer}.{kind}": ("count" if kind == "calls" else "s")
             for layer, kinds in SPAN_METRICS.items() for kind in kinds}
PER_LAYER.update({
    "fqlinalg.mat_mul.macs": "count",
    "combin.self_s": "s",
    "codec.repair_symbols_per_formula": "ratio",
    "storlab.self_s": "s",
    "storlab.share_bytes_written": "B",
    "storlab.share_bytes_read": "B",
    "storlab.disk_bytes_per_stored_symbol": "B/symbol",
    "storlab.wire_bytes_per_repair_symbol": "B/symbol",
    "cli.import_s": "s",
    "cli.noop_s": "s",
    "cli.process_share": "ratio",
    "workload.repeat_key_share": "ratio",
    "workload.stripes": "count",
    "trace.overhead_ratio": "ratio",
})


class HarnessError(RuntimeError):
    """The harness itself could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_worker(job_path: Path, mode: str, env: dict, deadline: float) -> dict:
    # its own session, so a timeout also stops the CLI processes it started
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path), mode],
                          env=env, cwd=job_path.parent, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise HarnessError(f"{mode} worker ran out of time") from None
    if proc.returncode != 0:
        raise HarnessError(f"{mode} worker exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _timed(records: list[dict]) -> list[dict]:
    # failed ops still count in `failed`; their times are not the program's
    return [r for r in records if r["ok"]] or records


def _ratio(part: float, whole: float) -> float:
    # 0 only where every op failed, and then `correct` is already false
    return part / whole if whole else 0.0


def _rate(records: list[dict]) -> float:
    ok = _timed(records)
    return _ratio(sum(r["bytes"] for r in ok) / 1024, sum(r["wall"] for r in ok))


def _p50_ms(records: list[dict]) -> float:
    return median(r["wall"] for r in _timed(records)) * 1000 if records else 0.0


def _by_op(records: list[dict]) -> dict[str, list[dict]]:
    return {op: [r for r in records if r["op"] == op] for op in ("encode", "repair", "recover")}


def end_to_end(setups: list[float], result: dict) -> tuple[dict, dict]:
    """End-to-end metrics, and the note printed beside each."""
    ops = _by_op(result["records"])
    encodes = [r for r in ops["encode"] if "disk_bytes" in r]
    wired = [r for r in _by_op(result.get("probe_records", result["records"]))["repair"]
             if "wire_bytes" in r]
    wire_bytes = sum(r["wire_bytes"] for r in wired)
    stripes = sum(r["stripes"] for r in wired)
    d_beta = _ratio(sum(r["symbols_formula"] for r in wired), stripes)
    metrics = {
        "encode_kib_s": _rate(ops["encode"]),
        "repair_kib_s": _rate(ops["repair"]),
        "recover_kib_s": _rate(ops["recover"]),
        "encode_p50_ms": _p50_ms(ops["encode"]),
        "repair_p50_ms": _p50_ms(ops["repair"]),
        "recover_p50_ms": _p50_ms(ops["recover"]),
        "disk_bytes_per_file_byte": _ratio(sum(r["disk_bytes"] for r in encodes),
                                           sum(r["bytes"] for r in encodes)),
        "wire_bytes_per_file_byte": _ratio(wire_bytes, sum(r["bytes"] for r in wired)),
        "setup_s": median(setups),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    notes = {f"{op}_{kind}": f"n={len(_timed(rs))} ops"
             for op, rs in ops.items() for kind in ("kib_s", "p50_ms")}
    notes.update({
        "disk_bytes_per_file_byte": (f"n={len(encodes)} files; code rate n*alpha/F = "
                                     f"{encodes[0]['rate'] if encodes else 0:.4g}"),
        "wire_bytes_per_file_byte": (f"{_ratio(wire_bytes, stripes):.4g} B per stripe against "
                                     f"d*beta = {d_beta:.4g} symbols per stripe"
                                     + ("; counted on an in-process replay of the warm-up "
                                        "repair" if "probe_records" in result else "")),
        "setup_s": f"median of n={len(setups)} fresh set-ups",
        "peak_rss_mib": "largest CLI process" if "probe_records" in result else "worker process",
    })
    return metrics, notes


def per_layer(result: dict) -> dict:
    """Per-layer metrics of the traced run."""
    layers, counts = result["layers"], result["counts"]
    metrics = {}
    for layer, kinds in SPAN_METRICS.items():
        calls, self_s = layers.get(layer, (0, 0.0))
        for kind in kinds:
            metrics[f"{layer}.{kind}"] = calls if kind == "calls" else self_s
    # repeats are counted on the untraced first pass: the traced pass replays it
    keyed = [r for r in result["records"] if r["op"] != "encode"]
    traced = _by_op(result["traced_records"])
    metrics.update({
        "fqlinalg.mat_mul.macs": counts.get("mat_mul.macs", 0),
        "combin.self_s": sum(v[1] for k, v in layers.items() if k.startswith("combin.")),
        "codec.repair_symbols_per_formula": _ratio(
            counts.get("symbols_moved", 0),
            sum(r.get("symbols_formula", 0) for r in traced["repair"])),
        "storlab.self_s": sum(layers.get(f"storlab.{op}", (0, 0.0))[1] for op in TOP_LEVEL),
        "storlab.share_bytes_written": counts.get("share_bytes_written", 0),
        "storlab.share_bytes_read": counts.get("share_bytes_read", 0),
        "storlab.disk_bytes_per_stored_symbol": _ratio(counts.get("share_bytes_written", 0),
                                                       counts.get("symbols_stored", 0)),
        "storlab.wire_bytes_per_repair_symbol": _ratio(counts.get("wire_bytes", 0),
                                                       counts.get("wire_symbols", 0)),
        "cli.import_s": result["cli_import_s"],
        "cli.noop_s": result["cli_noop_s"],
        "cli.process_share": _ratio(result["cli_noop_s"], result["median_op_s"]),
        "workload.repeat_key_share": _ratio(sum(r.get("repeat", False) for r in keyed),
                                            len(keyed)),
        "workload.stripes": sum(r.get("stripes", 0) for r in traced["encode"]),
        "trace.overhead_ratio": result["overhead_ratio"],
    })
    return metrics


def _all_records(result: dict) -> list[dict]:
    keys = ("setup_records", "records", "probe_records", "in_process_records",
            "traced_records")
    return [r for key in keys for r in result.get(key, [])]


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "cascade_codes" / "__init__.py").is_file():
        print(f"error: no cascade_codes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        job = make_job(WORKLOADS[workload], seed, work)
        job["seconds"] = seconds
        job["trace_path"] = str(ROOT / ".perfbench" / "traces" / f"{workload}-seed{seed}.jsonl.gz")
        job_path = work / "job.json"
        job_path.write_text(json.dumps(job))
        env = _worker_env()
        # byte-compile the package once so that no timed process pays for it
        subprocess.run([sys.executable, "-c", "import cascade_codes.storlab"], env=env,
                       cwd=work, check=True, timeout=60)
        setups = [] if trace else [_run_worker(job_path, "setup", env, deadline)
                                   for _ in range(SETUP_REPEATS)]
        result = _run_worker(job_path, "trace" if trace else "measure", env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for res in setups + [result] for r in _all_records(res)]
    failed = sum(not r["ok"] for r in records)
    if trace:
        metrics, units = per_layer(result), PER_LAYER
        notes: dict[str, str] = {}
        correct = failed == 0 and metrics["codec.repair_symbols_per_formula"] == 1
        facts = {"spans": result["spans"], "trace_file": job["trace_path"]}
        ran = result["traced_records"]
    else:
        metrics, notes = end_to_end([s["setup_s"] for s in setups + [result]], result)
        units = END_TO_END
        # a repair that serialized nothing means the wire counter no longer sees
        # the program's repair messages, so the wire metric would be wrong
        correct = failed == 0 and metrics["wire_bytes_per_file_byte"] > 0
        facts = {"cycles": result["cycles"]}
        ran = result["records"]
    encoded = _by_op(ran)["encode"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "params": {key: job[key] for key in ("n", "k", "d", "mu", "q")},
        "failed_op_ratio": failed / len(records),
        **facts,
        "errors": [e for res in setups + [result] for e in res["errors"]],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_env": {key: os.environ[key] for key in THREAD_ENV if key in os.environ},
        "schedule": [{"file": Path(c["file"]).name, "bytes": r["bytes"], "failed": c["failed"],
                      "helpers": c["helpers"], "observers": c["observers"]}
                     for r, c in zip(encoded, itertools.cycle(job["cycles"]))],
    }
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]:9s} {notes.get(name, '')}")
    print(f"{'failed_op_ratio':40s} {report['failed_op_ratio']:14.6g} "
          f"{'':9s} {failed} of {len(records)} ops")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
