# Desk-scale storage laboratory: a share directory (n share files plus a
# manifest) is the cluster, and a CLI drives encode / repair / recover /
# verify cycles on it plus trade-off reporting

from __future__ import annotations

import os
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .cascade import build_super_message
# unused here, but bound so that perfbench/spans.py, which rebinds build_tree
# by name in this module and in cascade, finds it
from .cascade import build_tree  # noqa: F401
from .codec import (
    NodeShare,
    RepairMessage,
    encode,
    helper_repair_message,
    recover_data,
    regenerate_node,
)
from .combin import binomial, subsets_lex
from .detseg import det_repair_symbol, repair_encoder
from .fqlinalg import Field, field_for_order, is_prime, mat_rank
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
_MANIFEST_INTS = set(MANIFEST_KEYS) - {"format", "encoder"}


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


def symbols_to_bytes(symbols: NDArray) -> bytes:
    """Inverse of bytes_to_symbols; a symbol outside 0..255 raises ValueError."""
    arr = np.asarray(symbols).ravel()
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        offender = int(np.argmax((arr < 0) | (arr > 255)))
        raise ValueError(f"symbol {arr[offender]} at offset {offender} does not fit in a byte")
    return arr.astype(np.uint8).tobytes()


def _check_header(n: int, k: int, d: int, mu: int, q: int, node: int) -> None:
    # the one rule for what a share header can hold
    if not all(0 < v < 256 for v in (n, k, d, mu, node)):
        raise ValueError("n, k, d, mu and the node index must lie in 1..255")
    if not 1 < q < 65536:
        raise ValueError("field order must fit in two bytes")


def write_share_file(path: Path, n: int, k: int, d: int, mu: int, q: int,
                     node: int, payload: NDArray[np.int64]) -> None:
    """Serialize one node's (possibly multi-stripe) payload.

    Header: magic, version, n, k, d, mu (one byte each), q as two bytes
    big-endian, node index byte; then each element as two bytes big-endian.

    Raises:
        ValueError: On header fields or elements that do not fit the format.
    """
    _check_header(n, k, d, mu, q, node)
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
        ValueError: On unknown structure, a repeated or missing key, or a
            non-integer value of a numeric key (naming the key).
    """
    entries: dict[str, object] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep or key not in MANIFEST_KEYS:
            raise ValueError(f"unexpected manifest line {line!r}")
        if key in entries:
            raise ValueError(f"manifest repeats key {key!r}")
        if key in _MANIFEST_INTS:
            try:
                value = int(value)
            except ValueError:
                raise ValueError(f"manifest {key} = {value!r} is not an integer") from None
        entries[key] = value
    missing = [key for key in MANIFEST_KEYS if key not in entries]
    if missing:
        raise ValueError(f"manifest is missing keys {missing}")
    return entries


def _manifest(key: CodeKey, file_symbols: int) -> dict[str, object]:
    # the whole manifest, in MANIFEST_KEYS order: the code and the file size fix it
    params = code_system(key).params
    stripes = -(-file_symbols // params.file_size)
    return {"format": "cascade-shares", "version": 1, "n": key.n, "k": key.k, "d": key.d,
            "mu": key.mu, "q": key.q, "alpha": params.alpha, "beta": params.beta,
            "file_symbols": file_symbols, "stripe_count": stripes,
            "pad_symbols": stripes * params.file_size - file_symbols,
            "encoder": "vandermonde", "semi_systematic": int(key.semi_systematic)}


def _write_share(shares_dir: Path, key: CodeKey, node: int, block: NDArray) -> Path:
    # one node's (stripes, alpha) block, stored stripe by stripe
    path = shares_dir / share_filename(node)
    write_share_file(path, key.n, key.k, key.d, key.mu, key.q, node, block.ravel())
    return path


def encode_file(input_path: Path, out_dir: Path, n: int, k: int, d: int, mu: int,
                q: int | None = None, semi_systematic: bool = False) -> Path:
    """Encode a file into n share files plus a manifest; returns the manifest path.

    The file is split into stripes of F symbols (one byte per symbol), the
    final stripe zero-padded, and each node's share concatenates its alpha
    elements per stripe. The compiled encode map (a plans.LinearMap)
    encodes all stripes in one apply.

    Raises:
        ValueError: On invalid parameters, q < n, or bytes outside the field.
    """
    if q is None:
        q = default_cli_order(n)
    _check_header(n, k, d, mu, q, n)  # node indices run up to n
    key = CodeKey(q, n, k, d, mu, bool(semi_systematic))
    system = code_system(key)
    symbols = bytes_to_symbols(input_path.read_bytes(), q)
    entries = _manifest(key, symbols.size)
    f_size, alpha = system.params.file_size, system.params.alpha
    rows = np.zeros((entries["stripe_count"], f_size), dtype=np.uint8)
    rows.reshape(-1)[:symbols.size] = symbols
    coded = encode_plan(key).apply(rows)

    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(1, n + 1):
        _write_share(out_dir, key, i, coded[:, (i - 1) * alpha:i * alpha])
    manifest = out_dir / "manifest.txt"
    write_manifest(manifest, entries)
    return manifest


def _load_system(manifest_path: Path) -> tuple[dict[str, object], CodeKey]:
    # every key must be what the code and the file size give; a corrupt one
    # would otherwise yield a wrong file
    entries = read_manifest(manifest_path)
    key = CodeKey(*(entries[name] for name in ("q", "n", "k", "d", "mu")),
                  bool(entries["semi_systematic"]))
    file_symbols = entries["file_symbols"]
    for name, want in _manifest(key, file_symbols).items():
        if entries[name] != want:
            raise ValueError(f"manifest {name} = {entries[name]!r} does not match {want!r}, "
                             f"derived from {key} and file_symbols = {file_symbols}")
    return entries, key


def _node_set(role: str, nodes: Sequence[int], count: int, n: int) -> tuple[int, ...]:
    # the one rule for the nodes an operation names, checked before any
    # share is read. Returned ascending: no result depends on the order, so
    # each node set compiles one plan
    for node in nodes:
        if not 1 <= node <= n:
            raise ValueError(f"{role} {node} out of range 1..{n}")
    if len(nodes) != count or len(set(nodes)) != count:
        raise ValueError(f"need {count} distinct {role}s, got {list(nodes)}")
    return tuple(sorted(nodes))


def _read_shares(shares_dir: Path, entries: dict[str, object], nodes: Sequence[int],
                 dtype: np.dtype) -> NDArray:
    # the nodes' shares side by side, one row per stripe: columns
    # j*alpha .. (j+1)*alpha hold the share of nodes[j]
    stripes, alpha = entries["stripe_count"], entries["alpha"]
    out = np.empty((stripes, len(nodes) * alpha), dtype=dtype)
    for j, node in enumerate(nodes):
        try:
            header, payload = read_share_file(shares_dir / share_filename(node))
        except FileNotFoundError:
            raise ValueError(f"share of node {node} is missing from {shares_dir}") from None
        for name in ("n", "k", "d", "mu", "q"):
            if header[name] != entries[name]:
                raise ValueError(f"share of node {node} disagrees with the manifest "
                                 f"on {name} ({header[name]} vs {entries[name]})")
        if header["node"] != node:
            raise ValueError(f"share file for node {node} carries index {header['node']}")
        if payload.size != stripes * alpha:
            raise ValueError(f"share of node {node} holds {payload.size} elements, "
                             f"expected {stripes * alpha}")
        out[:, j * alpha:(j + 1) * alpha] = payload.reshape(stripes, alpha)
    return out


def repair_shares(manifest_path: Path, shares_dir: Path, failed: int,
                  helpers: Sequence[int]) -> tuple[Path, int]:
    """Regenerate node `failed`; returns (share path, symbols moved).

    Each helper computes its message for all stripes in one apply of the
    compiled helper map, and codec.regenerate_node checks the messages and
    applies the compiled regenerate map once. Each message
    crosses a real serialization boundary once, carrying every stripe, and
    the reported bandwidth counts the symbols deserialized: d * beta per
    stripe. The helpers may be listed in any order.

    Raises:
        ValueError: On bad node indices, repeated helpers, a missing or
            foreign share, or a message that regenerate_node refuses.
    """
    entries, key = _load_system(manifest_path)
    (failed,) = _node_set("failed node", [failed], 1, key.n)
    helpers = _node_set("helper", helpers, key.d, key.n)
    if failed in helpers:
        raise ValueError("the failed node cannot help itself")
    system = code_system(key)
    alpha, stripes = system.params.alpha, entries["stripe_count"]
    shares = _read_shares(shares_dir, entries, helpers, system.field.dtype)
    helper_map = helper_plan(key, failed)
    messages = []
    for j, h in enumerate(helpers):
        share = NodeShare(index=h, payload=shares[:, j * alpha:(j + 1) * alpha].T)
        batch = helper_repair_message(system.enc, system.tree, share, failed, helper_map)
        messages.append(RepairMessage.from_bytes(batch.to_bytes(), system.tree, stripes))
    rebuilt = regenerate_node(system.enc, system.tree, failed, helpers, messages,
                              regenerate_plan(key, failed, helpers))
    moved = sum(message.total_symbols for message in messages)
    return _write_share(shares_dir, key, failed, rebuilt.payload.T), moved


def recover_file(manifest_path: Path, out_path: Path, shares_dir: Path,
                 nodes: Sequence[int] | None = None) -> Path:
    """Rebuild the original file from any k shares and write it to out_path.

    All stripes are decoded in one apply of the compiled recover map of
    the chosen nodes, in any order (default: the first k present). The
    file is written beside out_path and renamed over it, so a failed write
    leaves no partial file.

    Raises:
        ValueError: On a node index outside 1..n, other than k distinct
            nodes, or a share that is missing or disagrees with the manifest.
    """
    entries, key = _load_system(manifest_path)
    system = code_system(key)
    if nodes is None:
        nodes = [i for i in range(1, key.n + 1) if (shares_dir / share_filename(i)).exists()]
        if len(nodes) < key.k:
            raise ValueError(f"recovery needs k = {key.k} shares, found {len(nodes)} "
                             f"in {shares_dir}: nodes {nodes}")
        nodes = nodes[:key.k]
    nodes = _node_set("observer", nodes, key.k, key.n)
    observed = _read_shares(shares_dir, entries, nodes, system.field.dtype)
    symbols = recover_plan(key, nodes).apply(observed).ravel()
    pad = entries["pad_symbols"]
    if pad:
        symbols = symbols[:-pad]
    _replace_atomically(out_path, symbols_to_bytes(symbols))
    return out_path


def run_verify(k: int, d: int, mu: int, n: int, q: int, exhaustive: bool = False,
               seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run the invariant suite at one parameter point; returns (name, ok, detail) rows.

    Raises:
        ValueError: Outside desk-scale bounds (n <= 8, d <= 6), for n <= d
            (no helper set would exist) or q < n.
    """
    import itertools

    if n > 8 or d > 6:
        raise ValueError(f"verify is desk-scale only (n <= 8, d <= 6), got n={n}, d={d}")
    system = code_system(CodeKey(q, n, k, d, mu, False))
    field, enc, params = system.field, system.enc, system.params
    rng = random.Random(seed)
    tree = system.tree
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
    # every (failed node, helper set) case and every k-subset; a run that is
    # not exhaustive checks one of each, drawn uniformly
    cases = [(f, hs) for f in range(1, n + 1)
             for hs in itertools.combinations([h for h in range(1, n + 1) if h != f], d)]
    subsets = list(itertools.combinations(range(1, n + 1), k))
    if not exhaustive:
        cases, subsets = [rng.choice(cases)], [rng.choice(subsets)]
    # a helper's message toward f is the same in every helper set
    message = lru_cache(None)(lambda h, f: helper_repair_message(enc, tree, shares[h - 1], f))
    repair_ok, bandwidth_ok = True, True
    for f, helpers in cases:
        messages = [message(h, f) for h in helpers]
        if any(msg.total_symbols != params.beta for msg in messages):
            bandwidth_ok = False
        rebuilt = regenerate_node(enc, tree, f, helpers, messages)
        if not np.array_equal(rebuilt.payload, shares[f - 1].payload):
            repair_ok = False
    results.append((f"repair sweep ({len(cases)} cases)", repair_ok,
                    "regenerated share equals the original"))
    results.append(("repair bandwidth", bandwidth_ok, f"beta = {params.beta} per helper"))

    recover_ok = True
    for nodes in subsets:
        got = recover_data(enc, tree, list(nodes), [shares[i - 1] for i in nodes])
        if list(got) != list(file_symbols):
            recover_ok = False
    results.append((f"recovery sweep ({len(subsets)} cases)", recover_ok,
                    "every k-subset returns the file"))
    return results


def _parity_audit(field: Field, sm) -> bool:
    # every (m+1)-group across a mode-m pre-injection segment must close its
    # alternating parity sum, the sum det_repair_symbol takes. A mode-0
    # segment's groups are its single entries; a mode-d segment has none
    d = sm.tree.d
    return all(
        int(det_repair_symbol(field, sm.pre_matrices[spec.segment_id], y_set,
                              spec.signature)) == 0
        for spec in sm.tree.segments if spec.mode < d
        for y_set in subsets_lex(d, spec.mode + 1))


def _parse_nodes(text: str) -> list[int]:
    import argparse

    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _cmd_params(args) -> int:
    k, d = args.k, args.d
    if (args.mu is not None) == (args.all_modes or args.curve):
        print("params: give a mode, or --all-modes or --curve, but not both", file=sys.stderr)
        return 2
    if args.mu is None:
        code_params(k, d, 1)  # checks 1 <= k <= d, even when 1..k is empty
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
    expected = entries["d"] * entries["beta"] * entries["stripe_count"]
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
