"""One benchmark process: set up, run a workload's cycles, report raw samples.

Usage: python3 perfbench/worker.py JOB.json {setup,measure,trace}

Every cycle is encode -> delete one share -> repair it from d helpers ->
recover from k nodes that include the repaired one, one op at a time. Each op
is timed alone; checking its output happens outside the timed region. The
result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

OP_TIMEOUT_S = 150
PROBE_REPEATS = 3


class Cycles:
    """Runs cycles and keeps one record per op; op failures never abort a run."""

    def __init__(self, job: dict, ops) -> None:
        from cascade_codes.storlab import read_manifest, share_filename

        self.job = job
        self.ops = ops
        self.read_manifest = read_manifest
        self.share_filename = share_filename
        self.records: list[dict] = []
        self.errors: list[str] = []
        self.seen: set = set()
        self.tracer = None
        scratch = Path(job["work_dir"]) / "run"
        self.shares = scratch / "shares"
        self.output = scratch / "recovered.bin"
        scratch.mkdir(parents=True, exist_ok=True)

    def _attempt(self, op: str, size: int, fn, *args):
        if self.tracer is not None:
            self.tracer.begin_op()
        start = perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # a failed op is counted, never fatal
            value = exc
        wall = perf_counter() - start
        record = {"op": op, "bytes": size, "wall": wall, "ok": not isinstance(value, Exception)}
        if not record["ok"]:
            self._error(f"{op}: {type(value).__name__}: {value}")
        self.records.append(record)
        return record, value

    def _error(self, text: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(text)

    def run(self, cycle: dict) -> None:
        """One encode / repair / recover cycle with its bit-for-bit checks."""
        source = Path(cycle["file"])
        data = source.read_bytes()
        failed, helpers, observers = cycle["failed"], cycle["helpers"], cycle["observers"]
        repeat = {"repair": ("repair", failed, tuple(helpers)) in self.seen,
                  "recover": ("recover", tuple(observers)) in self.seen}
        self.seen.update({("repair", failed, tuple(helpers)), ("recover", tuple(observers))})
        shutil.rmtree(self.shares, ignore_errors=True)
        manifest = self.encode(source, len(data))
        if manifest is None:
            for op in ("repair", "recover"):
                self.records.append({"op": op, "bytes": len(data), "wall": 0.0, "ok": False})
            return
        self.repair(manifest, self.shares, failed, helpers, len(data))["repeat"] = repeat["repair"]
        self.recover(manifest, self.shares, observers, data)["repeat"] = repeat["recover"]

    def encode(self, source: Path, size: int) -> Path | None:
        """Encode into self.shares; returns the manifest, or None if the op failed."""
        record, _ = self._attempt("encode", size, self.ops.encode, source, self.shares)
        manifest = self.shares / "manifest.txt"
        try:
            entries = self.read_manifest(manifest) if record["ok"] else None
        except (OSError, ValueError) as exc:
            record["ok"] = False
            self._error(f"encode: unreadable manifest: {exc}")
        if not record["ok"]:
            return None
        record["disk_bytes"] = sum(p.stat().st_size for p in self.shares.iterdir())
        record["stripes"] = int(entries["stripe_count"])
        record["rate"] = self.job["n"] * int(entries["alpha"]) / (
            (int(entries["file_symbols"]) + int(entries["pad_symbols"])) / record["stripes"])
        return manifest

    def repair(self, manifest: Path, shares: Path, failed: int, helpers: list[int],
               size: int) -> dict:
        """Delete the failed node's share, regenerate it, and compare the two."""
        entries = self.read_manifest(manifest)
        victim = shares / self.share_filename(failed)
        lost = victim.read_bytes() if victim.exists() else None
        victim.unlink(missing_ok=True)
        wire_before = self.ops.wire_bytes
        record, moved = self._attempt("repair", size, self.ops.repair,
                                      manifest, shares, failed, helpers)
        record["stripes"] = int(entries["stripe_count"])
        record["symbols_formula"] = self.job["d"] * int(entries["beta"]) * record["stripes"]
        record["wire_bytes"] = self.ops.wire_bytes - wire_before
        if not record["ok"]:
            return record
        if lost is None or not victim.exists() or victim.read_bytes() != lost:
            record["ok"] = False
            self._error(f"repair: node {failed} share differs from the lost one")
        elif moved is not None and moved != record["symbols_formula"]:
            record["ok"] = False
            self._error(f"repair: moved {moved} symbols, formula d*beta*stripes "
                        f"gives {record['symbols_formula']}")
        return record

    def recover(self, manifest: Path, shares: Path, observers: list[int],
                expected: bytes) -> dict:
        """Recover from the observer nodes and compare with the input file."""
        self.output.unlink(missing_ok=True)
        record, _ = self._attempt("recover", len(expected), self.ops.recover,
                                  manifest, self.output, shares, observers)
        if record["ok"] and (not self.output.exists() or self.output.read_bytes() != expected):
            record["ok"] = False
            self._error(f"recover: output from nodes {observers} differs from the input")
        return record

    def run_for(self, seconds: float) -> int:
        """Closed loop: start rounds of cycles until `seconds` have passed.

        Only whole rounds run, so every run sees a workload's full mix of
        file sizes and failed nodes. Returns the number of cycles run.
        """
        cycles, length = self.job["cycles"], self.job["round_length"]
        start = perf_counter()
        count = 0
        while count == 0 or perf_counter() - start < seconds:
            for _ in range(length):
                self.run(cycles[count % len(cycles)])
                count += 1
        return count


class LibraryOps:
    """In-process calls into storlab's public file functions.

    Wire bytes are counted by wrapping RepairMessage.to_bytes for the rest of
    the process's life; counting adds no measurable time to a repair.
    """

    def __init__(self, job: dict) -> None:
        from cascade_codes import storlab
        from cascade_codes.codec import RepairMessage

        self.job = job
        self.storlab = storlab
        self.wire_bytes = 0
        serialize = RepairMessage.to_bytes

        def counted(message):
            wire = serialize(message)
            self.wire_bytes += len(wire)
            return wire

        RepairMessage.to_bytes = counted

    def encode(self, source: Path, shares: Path):
        j = self.job
        return self.storlab.encode_file(source, shares, j["n"], j["k"], j["d"], j["mu"],
                                        q=j["q"])

    def repair(self, manifest: Path, shares: Path, failed: int, helpers: list[int]):
        return self.storlab.repair_shares(manifest, shares, failed, helpers)[1]

    def recover(self, manifest: Path, output: Path, shares: Path, observers: list[int]):
        self.storlab.recover_file(manifest, output, shares, observers)


class CliOps:
    """Each op is `cascade` in a fresh process (`python -m cascade_codes.storlab`).

    With in_process=True the same argument lists go to storlab.main instead,
    which is how the traced run sees inside the CLI.
    """

    wire_bytes = 0

    def __init__(self, job: dict, in_process: bool = False) -> None:
        self.job = job
        self.in_process = in_process

    def _cli(self, *args) -> None:
        argv = [str(a) for a in args]
        if self.in_process:
            from cascade_codes import storlab

            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = storlab.main(argv)
            detail = err.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "cascade_codes.storlab", *argv],
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=OP_TIMEOUT_S)
            code, detail = proc.returncode, proc.stderr
        if code != 0:
            raise RuntimeError(f"cascade {argv[0]} exited {code}: {detail.strip()[-200:]}")

    def encode(self, source: Path, shares: Path):
        j = self.job
        self._cli("encode", source, j["n"], j["k"], j["d"], j["mu"], "--out-dir", shares)

    def repair(self, manifest: Path, shares: Path, failed: int, helpers: list[int]):
        # a bandwidth mismatch shows as repair's exit status 1
        self._cli("repair", manifest, "--fail", failed,
                  "--helpers", ",".join(map(str, helpers)))

    def recover(self, manifest: Path, output: Path, shares: Path, observers: list[int]):
        self._cli("recover", manifest, output, "--nodes", ",".join(map(str, observers)))


def _fresh_wall(*args: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, *args], stdout=subprocess.DEVNULL, check=True,
                   timeout=OP_TIMEOUT_S)
    return perf_counter() - start


def _cli_wire_probe(job: dict) -> list[dict]:
    # the CLI's repair messages cross no boundary the harness can see, so the
    # warm-up cycle is replayed in process to count their bytes
    probe_job = {**job, "work_dir": str(Path(job["work_dir"]) / "probe")}
    probe = Cycles(probe_job, LibraryOps(probe_job))
    probe.run(job["warmup"])
    return probe.records


def _op_walls(records: list[dict]) -> float:
    return sum(r["wall"] for r in records if r["ok"])


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    mode = sys.argv[2]
    seconds = float(job["seconds"])
    if job["via_cli"]:
        import cascade_codes.storlab  # noqa: F401  the harness's own import is no CLI set-up
    start = perf_counter()
    ops = CliOps(job) if job["via_cli"] else LibraryOps(job)
    cycles = Cycles(job, ops)
    cycles.run(job["warmup"])
    result = {"setup_s": perf_counter() - start, "setup_records": cycles.records}
    cycles.records = []

    if mode == "measure":
        result["cycles"] = cycles.run_for(seconds)
        who = resource.RUSAGE_CHILDREN if job["via_cli"] else resource.RUSAGE_SELF
        result["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
        result["records"] = cycles.records
        if job["via_cli"]:
            result["probe_records"] = _cli_wire_probe(job)
    elif mode == "trace":
        result.update(_trace(job, cycles, seconds))
    result["errors"] = cycles.errors
    print(json.dumps(result))
    return 0


def _trace(job: dict, cycles: Cycles, seconds: float) -> dict:
    from spans import Tracer

    out: dict = {
        "cli_import_s": median(_fresh_wall("-c", "import cascade_codes.storlab")
                               for _ in range(PROBE_REPEATS)),
        "cli_noop_s": median(_fresh_wall("-m", "cascade_codes.storlab", "params", "4", "6", "4")
                             for _ in range(PROBE_REPEATS)),
    }
    count = cycles.run_for(seconds / 3)
    out["records"] = cycles.records
    out["median_op_s"] = median(r["wall"] for r in cycles.records)
    if job["via_cli"]:
        # the traced run calls storlab.main in process, so its overhead is
        # taken against untraced in-process calls on the same cycles
        cycles.ops = CliOps(job, in_process=True)
        cycles.records = []
        for cycle in job["cycles"][:count]:
            cycles.run(cycle)
        out["in_process_records"] = cycles.records
    untraced = _op_walls(cycles.records)

    tracer = Tracer()
    cycles.tracer = tracer
    cycles.records = []
    tracer.install()
    try:
        for cycle in job["cycles"][:count]:
            cycles.run(cycle)
    finally:
        tracer.uninstall()
        cycles.tracer = None
    tracer.write(Path(job["trace_path"]))
    out.update({
        "overhead_ratio": _op_walls(cycles.records) / untraced if untraced else 0.0,
        "layers": {name: list(v) for name, v in tracer.layers.items()},
        "counts": dict(tracer.counts),
        "traced_records": cycles.records,
        "spans": len(tracer.spans),
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
