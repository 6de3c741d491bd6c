"""Spans and counters recorded around the program's layer functions.

The package binds names with ``from .x import y``, so each wrapper is rebound
in every module that calls the function under that name. Hot scalar calls
(field element arithmetic and combin helpers) get aggregated counters, not
spans, so memory stays bounded. A layer's self time is its span's duration
minus the time of the spans and counted calls nested in it.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "div", "signed_unit")
COMBIN_OPS = ("subset_rank", "subsets_lex", "ind_count", "binomial")
TOP_LEVEL = ("encode_file", "repair_shares", "recover_file", "main")


class Tracer:
    """Records spans (op, span, parent, name, start, end) in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self s
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [span id, start, nested seconds]
        self._last_id = 0
        self._in_counter = False
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        """Give the next top-level operation its own id."""
        self.op += 1

    def _span(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            self._last_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [self._last_id, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                layer = self.layers[name]
                layer[0] += 1
                layer[1] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((self.op, frame[0], parent, name, frame[1], end))
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._in_counter:  # e.g. BinaryField.sub calling add: count once
                return fn(*args, **kwargs)
            self._in_counter = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._in_counter = False
                layer = self.layers[name]
                layer[0] += 1
                layer[1] += duration
                if self._stack:
                    self._stack[-1][2] += duration
        return wrapper

    def _rebind(self, owners, attr, make):
        original = vars(owners[0])[attr]
        wrapper = make(original)
        for owner in owners:
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer functions of cascade_codes; undone by uninstall()."""
        from cascade_codes import cascade, codec, detseg, fqlinalg, storlab
        from cascade_codes.codec import RepairMessage
        from cascade_codes.fqlinalg import BinaryField, PrimeField

        counts = self.counts

        def macs(args, result):
            counts["mat_mul.macs"] += result.shape[0] * np.shape(args[2])[0] * result.shape[1]

        def moved(args, result):
            counts["symbols_moved"] += result.total_symbols

        def written(args, result):
            counts["share_bytes_written"] += Path(args[0]).stat().st_size
            counts["symbols_stored"] += len(args[7])

        def read(args, result):
            counts["share_bytes_read"] += Path(args[0]).stat().st_size

        def wire(args, result):
            counts["wire_bytes"] += len(result)
            counts["wire_symbols"] += args[0].total_symbols

        def span(name, observe=None):
            return lambda fn: self._span(name, fn, observe)

        self._rebind([fqlinalg], "rref", span("fqlinalg.rref"))
        self._rebind([codec, detseg], "mat_mul", span("fqlinalg.mat_mul", macs))
        self._rebind([codec, storlab], "repair_encoder", span("detseg.repair_encoder"))
        self._rebind([cascade], "build_pre_injection", span("detseg.build_pre_injection"))
        self._rebind([cascade, storlab], "build_tree", span("cascade.build_tree"))
        self._rebind([codec, storlab], "build_super_message",
                     span("cascade.build_super_message"))
        self._rebind([cascade], "injection_matrix", span("cascade.injection_matrix"))
        self._rebind([storlab], "encode", span("codec.encode"))
        self._rebind([storlab], "helper_repair_message",
                     span("codec.helper_repair_message", moved))
        self._rebind([storlab], "regenerate_node", span("codec.regenerate_node"))
        self._rebind([storlab], "recover_data", span("codec.recover_data"))
        self._rebind([storlab], "write_share_file", span("storlab.share_write", written))
        self._rebind([storlab], "read_share_file", span("storlab.share_read", read))
        for attr in TOP_LEVEL:
            self._rebind([storlab], attr, span(f"storlab.{attr}"))
        self._rebind([RepairMessage], "to_bytes", span("codec.repair_message_serde", wire))
        self._rebind([RepairMessage], "from_bytes", lambda cm: classmethod(
            self._span("codec.repair_message_serde", cm.__func__)))
        for attr in COMBIN_OPS:
            owners = [m for m in (cascade, codec, detseg, storlab) if attr in vars(m)]
            self._rebind(owners, attr, lambda fn, a=attr: self._counter(f"combin.{a}", fn))
        for cls in (PrimeField, BinaryField):
            for attr in FIELD_OPS:
                self._rebind([cls], attr,
                             lambda fn: self._counter("fqlinalg.field_elementwise", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for op, sid, parent, name, start, end in self.spans:
                out.write(json.dumps({"op": op, "span": sid, "parent": parent,
                                      "name": name, "start": start, "end": end}) + "\n")
