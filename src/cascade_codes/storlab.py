# Desk-scale storage laboratory: share files on disk, an in-memory cluster,
# and a CLI driving encode / repair / recover / verify cycles plus
# trade-off reporting

from __future__ import annotations

import os
import random
import sys
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .cascade import HierarchyTree, build_super_message, build_tree
from .codec import (
    EncoderMatrix,
    NodeShare,
    RepairMessage,
    encode,
    helper_repair_message,
    recover_data,
    regenerate_node,
    vandermonde_encoder,
)
from .combin import binomial
from .detseg import repair_encoder
from .fqlinalg import Field, field_for_order, is_prime, mat_mul, mat_rank
from .params import code_params, params_implicit, t_sequence
from .plans import (
    CodeKey,
    code_system,
    encode_plan,
    helper_plan,
    recover_plan,
    regenerate_plan,
)

SHARE_MAGIC = b"CSCD"
SHARE_VERSION = 1

MANIFEST_KEYS = (
    "format", "version", "n", "k", "d", "mu", "q", "alpha", "beta",
    "file_symbols", "stripe_count", "pad_symbols", "encoder", "semi_systematic",
)
_MANIFEST_INTS = {"version", "n", "k", "d", "mu", "q", "alpha", "beta",
                  "file_symbols", "stripe_count", "pad_symbols", "semi_systematic"}


def default_cli_order(n: int) -> int:
    """Smallest prime field order that fits n nodes and arbitrary bytes."""
    q = max(n, 257)
    while not is_prime(q):
        q += 1
    return q


def bytes_to_symbols(data: bytes, q: int) -> NDArray[np.uint8]:
    """One file byte per symbol; byte values must be valid field elements.

    Raises:
        ValueError: If a byte value reaches q (pick q >= 257 for arbitrary
            binary input).
    """
    symbols = np.frombuffer(data, dtype=np.uint8)
    if symbols.size and int(symbols.max()) >= q:
        offender = int(np.argmax(symbols >= q))
        raise ValueError(f"byte value {int(symbols[offender])} at offset {offender} "
                         f"is not a field element for q = {q}; use q >= 257 "
                         "for arbitrary binary input")
    return symbols


def symbols_to_bytes(symbols: NDArray[np.int64]) -> bytes:
    """Inverse of bytes_to_symbols for in-range symbol streams."""
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) > 255):
        raise ValueError("symbol stream does not fit back into bytes")
    return arr.astype(np.uint8).tobytes()


def write_share_file(path: Path, n: int, k: int, d: int, mu: int, q: int,
                     node: int, payload: NDArray[np.int64]) -> None:
    """Serialize one node's (possibly multi-stripe) payload.

    Header: magic, version, n, k, d, mu (one byte each), q as two bytes
    big-endian, node index byte; then each element as two bytes big-endian.

    Raises:
        ValueError: On header fields or elements that do not fit the format.
    """
    if not all(0 < v < 256 for v in (n, k, d, mu, node)):
        raise ValueError("n, k, d, mu, and node index must fit in one byte")
    if not 1 < q < 65536:
        raise ValueError("field order must fit in two bytes")
    header = SHARE_MAGIC + bytes((SHARE_VERSION, n, k, d, mu)) + q.to_bytes(2, "big")
    arr = np.asarray(payload)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= q):
        raise ValueError("payload elements must lie in [0, q)")
    _replace_atomically(path, header + bytes((node,)) + arr.astype(">u2").tobytes())


def read_share_file(path: Path) -> tuple[dict[str, int], NDArray[np.int64]]:
    """Parse a share file back into its header fields and payload.

    Raises:
        ValueError: On bad magic, version, or a malformed payload.
    """
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != SHARE_MAGIC:
        raise ValueError(f"{path} is not a share file")
    if data[4] != SHARE_VERSION:
        raise ValueError(f"unsupported share file version {data[4]}")
    header = {
        "n": data[5], "k": data[6], "d": data[7], "mu": data[8],
        "q": int.from_bytes(data[9:11], "big"), "node": data[11],
    }
    body = data[12:]
    if len(body) % 2:
        raise ValueError(f"{path} has a truncated payload")
    payload = np.frombuffer(body, dtype=">u2").astype(np.int64)
    if payload.size and int(payload.max()) >= header["q"]:
        raise ValueError(f"{path} carries elements outside its field")
    return header, payload


# cached so that each name stays alive: pathlib interns every name it joins,
# and re-interning names freed after each call fills the interned-string
# table with deleted slots until it is rebuilt, a 0.9 MiB transient that a
# process doing a few hundred file operations otherwise hits
@lru_cache(maxsize=256)
def share_filename(node: int) -> str:
    return f"node{node:03d}.share"


@lru_cache(maxsize=256)
def _temp_name(name: str) -> str:
    return f".{name}.tmp"


def _replace_atomically(path: Path, data: bytes) -> None:
    # write beside the target, then rename over it: a write that fails
    # leaves the old file (or none) and no partial one. Not fsynced, so a
    # power loss can still lose the new contents
    tmp = path.with_name(_temp_name(path.name))
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_manifest(path: Path, entries: dict[str, object]) -> None:
    """Write the manifest with its fixed key order, one key per line."""
    missing = [key for key in MANIFEST_KEYS if key not in entries]
    if missing:
        raise ValueError(f"manifest is missing keys {missing}")
    lines = [f"{key} = {entries[key]}" for key in MANIFEST_KEYS]
    _replace_atomically(path, ("\n".join(lines) + "\n").encode())


def read_manifest(path: Path) -> dict[str, object]:
    """Parse a manifest back into a dict, integer-typing the numeric keys.

    Raises:
        ValueError: On unknown structure or missing keys.
    """
    entries: dict[str, object] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep or key not in MANIFEST_KEYS:
            raise ValueError(f"unexpected manifest line {line!r}")
        entries[key] = int(value) if key in _MANIFEST_INTS else value
    missing = [key for key in MANIFEST_KEYS if key not in entries]
    if missing:
        raise ValueError(f"manifest is missing keys {missing}")
    return entries


@dataclass
class ClusterState:
    """An in-memory cluster of n nodes holding one encoded stripe each.

    Shares map node index to its NodeShare, or None once the node has
    failed; every repair event appends its transferred symbol count to the
    bandwidth ledger.
    """

    n: int
    k: int
    d: int
    mu: int
    field: Field
    enc: EncoderMatrix
    tree: HierarchyTree
    shares: dict[int, NodeShare | None]
    bandwidth_log: list[int] = dataclass_field(default_factory=list)

    @classmethod
    def create(cls, field: Field, enc: EncoderMatrix, tree: HierarchyTree,
               file_symbols: Sequence[int]) -> "ClusterState":
        sm = build_super_message(field, tree.k, tree.d, tree.mu, file_symbols)
        shares = encode(enc, sm)
        return cls(n=enc.n, k=tree.k, d=tree.d, mu=tree.mu, field=field,
                   enc=enc, tree=tree,
                   shares={share.index: share for share in shares})

    def live_nodes(self) -> list[int]:
        return [i for i, share in sorted(self.shares.items()) if share is not None]

    def fail_node(self, node: int) -> None:
        if self.shares.get(node) is None:
            raise ValueError(f"node {node} is not live")
        self.shares[node] = None

    def repair_node(self, node: int, helpers: Sequence[int] | None = None) -> int:
        """Regenerate a failed node from d live helpers; returns symbols moved.

        Raises:
            ValueError: If the node is live, or fewer than d live helpers
                exist (more than n - d concurrent failures).
        """
        if self.shares.get(node) is not None:
            raise ValueError(f"node {node} has not failed")
        if helpers is None:
            helpers = [i for i in self.live_nodes() if i != node][:self.d]
        if len(helpers) != self.d:
            raise ValueError(f"need d = {self.d} live helpers")
        messages = [helper_repair_message(self.enc, self.tree, self.shares[h], node)
                    for h in helpers]
        moved = sum(msg.total_symbols for msg in messages)
        self.shares[node] = regenerate_node(self.enc, self.tree, node, helpers, messages)
        self.bandwidth_log.append(moved)
        return moved

    def recover(self, nodes: Sequence[int] | None = None) -> NDArray[np.int64]:
        """Recover the file symbols from any k live nodes."""
        if nodes is None:
            nodes = self.live_nodes()[:self.k]
        shares = [self.shares[i] for i in nodes]
        if any(share is None for share in shares):
            raise ValueError("recovery needs live nodes")
        return recover_data(self.enc, self.tree, list(nodes), shares)


def encode_file(input_path: Path, out_dir: Path, n: int, k: int, d: int, mu: int,
                q: int | None = None, semi_systematic: bool = False) -> Path:
    """Encode a file into n share files plus a manifest; returns the manifest path.

    The file is split into stripes of F symbols (one byte per symbol), the
    final stripe zero-padded, and each node's share concatenates its alpha
    elements per stripe. All stripes are encoded by one product with the
    compiled encode plan.

    Raises:
        ValueError: On invalid parameters, q < n, or bytes outside the field.
    """
    if q is None:
        q = default_cli_order(n)
    params = code_params(k, d, mu)
    if n < d + 1:
        raise ValueError(f"need n > d, got n = {n} with d = {d}")
    if q < n:
        raise ValueError(f"field order {q} is smaller than n = {n}: "
                         "encoder rows would repeat evaluation points")
    key = CodeKey(q, n, k, d, mu, bool(semi_systematic))
    field = code_system(key).field

    symbols = bytes_to_symbols(input_path.read_bytes(), q)
    f_size = params.file_size
    stripes = -(-symbols.size // f_size)
    pad = stripes * f_size - symbols.size
    rows = np.zeros((stripes, f_size), dtype=np.uint8)
    rows.reshape(-1)[:symbols.size] = symbols
    coded = mat_mul(field, rows, encode_plan(key))

    out_dir.mkdir(parents=True, exist_ok=True)
    alpha = params.alpha
    for i in range(1, n + 1):
        payload = coded[:, (i - 1) * alpha:i * alpha].ravel()
        write_share_file(out_dir / share_filename(i), n, k, d, mu, q, i, payload)
    manifest = out_dir / "manifest.txt"
    write_manifest(manifest, {
        "format": "cascade-shares", "version": 1, "n": n, "k": k, "d": d,
        "mu": mu, "q": q, "alpha": params.alpha, "beta": params.beta,
        "file_symbols": symbols.size, "stripe_count": stripes,
        "pad_symbols": pad, "encoder": "vandermonde",
        "semi_systematic": int(semi_systematic),
    })
    return manifest


def _load_system(manifest_path: Path) -> tuple[dict[str, object], CodeKey]:
    entries = read_manifest(manifest_path)
    key = CodeKey(*(int(entries[name]) for name in ("q", "n", "k", "d", "mu")),
                  bool(int(entries["semi_systematic"])))
    return entries, key


def _read_cluster_share(shares_dir: Path, entries: dict[str, object], node: int,
                        ) -> NDArray[np.int64]:
    header, payload = read_share_file(shares_dir / share_filename(node))
    for key in ("n", "k", "d", "mu", "q"):
        if header[key] != int(entries[key]):
            raise ValueError(f"share of node {node} disagrees with the manifest "
                             f"on {key} ({header[key]} vs {entries[key]})")
    if header["node"] != node:
        raise ValueError(f"share file for node {node} carries index {header['node']}")
    expected = int(entries["stripe_count"]) * int(entries["alpha"])
    if payload.size != expected:
        raise ValueError(f"share of node {node} holds {payload.size} elements, "
                         f"expected {expected}")
    return payload


def repair_shares(manifest_path: Path, shares_dir: Path, failed: int,
                  helpers: Sequence[int]) -> tuple[Path, int]:
    """Regenerate node `failed`; returns (share path, symbols moved).

    Each helper computes its message for all stripes with one product with
    the compiled helper plan, and the failed node's payload is one product
    of the received messages with the regenerate plan. Each helper's message
    crosses a real serialization boundary once, carrying every stripe, and
    the reported bandwidth counts the symbols deserialized: d * beta per
    stripe.

    Raises:
        ValueError: On bad node indices, repeated helpers, or a message that
            does not fit its helper and failed node or holds a symbol
            outside the field.
    """
    entries, key = _load_system(manifest_path)
    n, d = int(entries["n"]), int(entries["d"])
    alpha, beta = int(entries["alpha"]), int(entries["beta"])
    stripes = int(entries["stripe_count"])
    if not 1 <= failed <= n:
        raise ValueError(f"failed node {failed} out of range 1..{n}")
    if len(helpers) != d or len(set(helpers)) != d:
        raise ValueError(f"need d = {d} distinct helpers")
    if failed in helpers:
        raise ValueError("the failed node cannot help itself")
    payloads = {h: _read_cluster_share(shares_dir, entries, h) for h in helpers}
    system = code_system(key)
    helper_map = helper_plan(key, failed)

    received = np.empty((stripes, d * beta), dtype=system.field.dtype)
    moved = 0
    for j, h in enumerate(helpers):
        share = NodeShare(index=h, payload=payloads[h].reshape(stripes, alpha).T)
        batch = helper_repair_message(system.enc, system.tree, share, failed, helper_map)
        message = RepairMessage.from_bytes(batch.to_bytes(), d, stripes)
        if (message.failed, message.helper, message.modes) != (failed, h, batch.modes):
            raise ValueError(f"message from node {message.helper} for node "
                             f"{message.failed} does not fit helper {h} repairing {failed}")
        symbols = np.concatenate(message.blocks)
        if (symbols >= system.field.q).any():
            raise ValueError(f"message from helper {h} holds a symbol outside "
                             f"GF({system.field.q})")
        moved += message.total_symbols
        received[:, j * beta:(j + 1) * beta] = symbols.T
    rebuilt = mat_mul(system.field, received, regenerate_plan(key, failed, tuple(helpers)))
    payload = rebuilt.ravel()
    out = shares_dir / share_filename(failed)
    write_share_file(out, n, int(entries["k"]), d, int(entries["mu"]),
                     int(entries["q"]), failed, payload)
    return out, moved


def recover_file(manifest_path: Path, out_path: Path, shares_dir: Path,
                 nodes: Sequence[int] | None = None) -> Path:
    """Rebuild the original file from any k shares and write it to out_path.

    All stripes are decoded by one product with the compiled recover plan
    of the chosen nodes, in the given order.

    Raises:
        ValueError: On missing shares, wrong count, or mixed parameters.
    """
    entries, key = _load_system(manifest_path)
    k = int(entries["k"])
    alpha = int(entries["alpha"])
    stripes = int(entries["stripe_count"])
    if nodes is None:
        nodes = []
        for i in range(1, int(entries["n"]) + 1):
            if (shares_dir / share_filename(i)).exists():
                nodes.append(i)
            if len(nodes) == k:
                break
    if len(nodes) != k or len(set(nodes)) != k:
        raise ValueError(f"recovery needs exactly k = {k} distinct nodes")
    field = code_system(key).field
    observed = np.empty((stripes, k * alpha), dtype=field.dtype)
    for j, i in enumerate(nodes):
        observed[:, j * alpha:(j + 1) * alpha] = (
            _read_cluster_share(shares_dir, entries, i).reshape(stripes, alpha))
    symbols = mat_mul(field, observed, recover_plan(key, tuple(nodes))).ravel()
    pad = int(entries["pad_symbols"])
    if pad:
        symbols = symbols[:-pad]
    out_path.write_bytes(symbols_to_bytes(symbols))
    return out_path


def run_verify(k: int, d: int, mu: int, n: int, q: int, exhaustive: bool = False,
               seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run the invariant suite at one parameter point; returns (name, ok, detail) rows.

    Raises:
        ValueError: Outside desk-scale bounds (n <= 8, d <= 6) or q < n.
    """
    import itertools

    if n > 8 or d > 6:
        raise ValueError(f"verify is desk-scale only (n <= 8, d <= 6), got n={n}, d={d}")
    if q < n:
        raise ValueError(f"field order {q} cannot seat {n} distinct encoder rows; "
                         f"need q >= {n}")
    rng = random.Random(seed)
    field = field_for_order(q)
    params = code_params(k, d, mu)
    enc = vandermonde_encoder(field, n, d)
    tree = build_tree(k, d, mu)
    file_symbols = [rng.randrange(field.q) for _ in range(params.file_size)]
    results: list[tuple[str, bool, str]] = []

    implicit = params_implicit(k, d, mu)
    results.append(("parameter cross-check", params.triple == implicit.triple,
                    f"closed {params.triple} vs implicit {implicit.triple}"))

    census = tree.mode_census()
    t = t_sequence(k, d, mu)
    census_ok = all(census.get(m, 0) == t[m] for m in range(mu + 1))
    results.append(("tree census", census_ok, f"{census} vs t = {t}"))

    sm = build_super_message(field, k, d, mu, file_symbols)
    parity_ok = _parity_audit(field, sm)
    results.append(("parity audit", parity_ok, "every materialized group sums to zero"))

    rank_ok = True
    for f in range(1, n + 1):
        for m in range(1, mu + 1):
            lam = repair_encoder(field, enc.row(f), tree.root.signature, m)
            if mat_rank(field, lam) != binomial(d - 1, m - 1):
                rank_ok = False
    results.append(("repair-encoder rank", rank_ok, "rank = C(d-1, m-1) for all f, m"))

    shares = encode(enc, sm)
    cases = []
    if exhaustive:
        for f in range(1, n + 1):
            others = [h for h in range(1, n + 1) if h != f]
            cases.extend((f, hs) for hs in itertools.combinations(others, d))
    else:
        f = rng.randrange(1, n + 1)
        others = [h for h in range(1, n + 1) if h != f]
        cases.append((f, tuple(rng.sample(others, d))))
    repair_ok, bandwidth_ok = True, True
    for f, helpers in cases:
        messages = [helper_repair_message(enc, tree, shares[h - 1], f) for h in helpers]
        if any(msg.total_symbols != params.beta for msg in messages):
            bandwidth_ok = False
        rebuilt = regenerate_node(enc, tree, f, helpers, messages)
        if not np.array_equal(rebuilt.payload, shares[f - 1].payload):
            repair_ok = False
    results.append((f"repair sweep ({len(cases)} cases)", repair_ok,
                    "regenerated share equals the original"))
    results.append(("repair bandwidth", bandwidth_ok, f"beta = {params.beta} per helper"))

    if exhaustive:
        subsets = list(itertools.combinations(range(1, n + 1), k))
    else:
        subsets = [tuple(sorted(rng.sample(range(1, n + 1), k)))]
    recover_ok = True
    for nodes in subsets:
        got = recover_data(enc, tree, list(nodes), [shares[i - 1] for i in nodes])
        if list(got) != list(file_symbols):
            recover_ok = False
    results.append((f"recovery sweep ({len(subsets)} cases)", recover_ok,
                    "every k-subset returns the file"))
    return results


def _parity_audit(field: Field, sm) -> bool:
    # every w-group materialized across a pre-injection segment must satisfy
    # its alternating parity equation
    from .combin import ind_count as ind, subset_rank as rank, subsets_lex

    d = sm.tree.d
    for spec in sm.tree.segments:
        mat = sm.pre_matrices[spec.segment_id]
        m = spec.mode
        if m == 0:
            if mat.any():
                return False
            continue
        for y_set in subsets_lex(d, m + 1):
            acc = np.int64(0)
            for y in y_set:
                signed = field.mul(field.signed_unit(spec.signature[y - 1]),
                                   mat[y - 1, rank(d, tuple(e for e in y_set if e != y))])
                acc = field.add(acc, field.mul(field.signed_unit(ind(y_set, y)), signed))
            if int(acc) != 0:
                return False
    return True


def _parse_nodes(text: str) -> list[int]:
    import argparse

    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _cmd_params(args) -> int:
    k, d = args.k, args.d
    if args.mu is None and not (args.all_modes or args.curve):
        print("params: give a mode, --all-modes, or --curve", file=sys.stderr)
        return 2
    modes = range(1, k + 1) if args.mu is None else [args.mu]
    rows = [code_params(k, d, mu) for mu in modes]
    if args.curve:
        print("mu\talpha\tbeta\tF\talpha_over_F\tbeta_over_F")
        for p in rows:
            print(f"{p.mu}\t{p.alpha}\t{p.beta}\t{p.file_size}"
                  f"\t{p.alpha / p.file_size:.6f}\t{p.beta / p.file_size:.6f}")
        return 0
    print(f"(k, d) = ({k}, {d})")
    print(f"{'mu':>4} {'alpha':>8} {'beta':>8} {'F':>10} {'alpha/F':>10} {'beta/F':>10}  points")
    for p in rows:
        flags = []
        if p.mu == 1:
            flags.append("MBR")
        if p.mu == k:
            flags.append("MSR")
        if p.mu == k - 1:
            flags.append("cut-set")
        print(f"{p.mu:>4} {p.alpha:>8} {p.beta:>8} {p.file_size:>10} "
              f"{p.alpha / p.file_size:>10.6f} {p.beta / p.file_size:>10.6f}  "
              f"{' '.join(flags)}")
    return 0


def _cmd_encode(args) -> int:
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.file + ".shares")
    manifest = encode_file(Path(args.file), out_dir, args.nodes, args.k, args.helpers,
                           args.mode, q=args.q, semi_systematic=args.semi_systematic)
    entries = read_manifest(manifest)
    print(f"wrote {entries['n']} shares to {out_dir} "
          f"({entries['stripe_count']} stripes of alpha = {entries['alpha']} elements, "
          f"q = {entries['q']})")
    print(f"manifest: {manifest}")
    return 0


def _cmd_repair(args) -> int:
    shares_dir = Path(args.shares_dir) if args.shares_dir else Path(args.manifest).parent
    path, moved = repair_shares(Path(args.manifest), shares_dir, args.fail, args.helpers)
    entries = read_manifest(Path(args.manifest))
    expected = int(entries["d"]) * int(entries["beta"]) * int(entries["stripe_count"])
    print(f"regenerated node {args.fail} -> {path}")
    print(f"bandwidth: {moved} symbols ({entries['d']} helpers x beta = {entries['beta']} "
          f"x {entries['stripe_count']} stripes; formula gives {expected})")
    return 0 if moved == expected else 1


def _cmd_recover(args) -> int:
    shares_dir = Path(args.shares_dir) if args.shares_dir else Path(args.manifest).parent
    out = recover_file(Path(args.manifest), Path(args.output), shares_dir,
                       nodes=args.nodes)
    print(f"recovered file -> {out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_verify(args.k, args.d, args.mu, args.nodes, args.q,
                         exhaustive=args.exhaustive, seed=args.seed)
    failures = 0
    for name, ok, detail in results:
        print(f"{'pass' if ok else 'FAIL'}  {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    # imported here so that library callers do not load argparse
    import argparse

    parser = argparse.ArgumentParser(
        prog="cascade",
        description="Exact-repair regenerating codes across the storage-bandwidth "
                    "trade-off: encode files into node shares, repair a lost node "
                    "with bandwidth beta per helper, and recover from any k shares.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="report (alpha, beta, F) and trade-off points")
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("mu", type=int, nargs="?", default=None)
    p.add_argument("--all-modes", action="store_true", help="all modes 1..k")
    p.add_argument("--curve", action="store_true",
                   help="machine-readable trade-off table for all modes")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("encode", help="encode a file into n share files")
    p.add_argument("file")
    p.add_argument("nodes", type=int, help="n, number of storage nodes")
    p.add_argument("k", type=int, help="k, shares needed for recovery")
    p.add_argument("helpers", type=int, help="d, helpers contacted per repair")
    p.add_argument("mode", type=int, help="mu, operating mode 1..k")
    p.add_argument("--q", type=int, default=None,
                   help="field order (default: smallest prime >= max(n, 257))")
    p.add_argument("--semi-systematic", action="store_true",
                   help="make the first k shares plain rows of the message matrix")
    p.add_argument("--out-dir", default=None, help="share directory (default FILE.shares)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("repair", help="regenerate one failed node from d helpers")
    p.add_argument("manifest")
    p.add_argument("--fail", type=int, required=True, help="failed node index")
    p.add_argument("--helpers", type=_parse_nodes, required=True,
                   help="comma-separated helper indices, exactly d of them")
    p.add_argument("--shares-dir", default=None, help="default: manifest directory")
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("recover", help="rebuild the original file from any k shares")
    p.add_argument("manifest")
    p.add_argument("output")
    p.add_argument("--nodes", type=_parse_nodes, default=None,
                   help="comma-separated node indices (default: first k present)")
    p.add_argument("--shares-dir", default=None, help="default: manifest directory")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("verify", help="run the invariant suite at one parameter point")
    p.add_argument("k", type=int)
    p.add_argument("d", type=int)
    p.add_argument("mu", type=int)
    p.add_argument("nodes", type=int, help="n, number of storage nodes")
    p.add_argument("q", type=int, help="field order")
    p.add_argument("--exhaustive", action="store_true",
                   help="sweep every failure, helper set, and recovery set")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
