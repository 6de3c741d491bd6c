# Compiled linear plans: encode, the helper message, regenerate and recover
# are each a fixed GF(q) matrix, built once from a batched pass of the
# reference code over the identity and cached by key

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    semi_systematize,
    split_blocks,
    vandermonde_encoder,
)
from .fqlinalg import Field, field_for_order
from .params import CodeParams, code_params

# plans kept per kind; a repair plan is keyed by its helper set, so an
# unbounded cache would grow with every distinct set
CACHE_SIZE = 64
# identity columns per reference pass are chosen so that one d x alpha x
# width int64 message matrix fits in this many bytes; a pass keeps about
# five such arrays alive. At (8,4,6,4), q = 257, this compiles the four
# plans in about 0.2 s within the per-stripe path's peak RSS; 512 KiB
# compiles in 0.15 s but peaks 1 MiB higher
_PASS_BUDGET = 192 * 1024


class CodeKey(NamedTuple):
    """Everything that fixes the code's linear maps."""

    q: int
    n: int
    k: int
    d: int
    mu: int
    semi_systematic: bool


@dataclass(frozen=True)
class CodeSystem:
    """Field, encoder, segment tree and parameters of one code."""

    field: Field
    enc: EncoderMatrix
    tree: HierarchyTree
    params: CodeParams


@lru_cache(maxsize=8)
def code_system(key: CodeKey) -> CodeSystem:
    """Build (once per key) the field, encoder and tree of a code.

    Raises:
        ValueError: On invalid parameters, n <= d or an unsupported field order.
    """
    if key.n <= key.d:
        raise ValueError(f"need n > d, got n = {key.n} with d = {key.d}")
    field = field_for_order(key.q)
    enc = vandermonde_encoder(field, key.n, key.d)
    if key.semi_systematic:
        enc = semi_systematize(enc, key.k)
    return CodeSystem(field=field, enc=enc, tree=build_tree(key.k, key.d, key.mu),
                      params=code_params(key.k, key.d, key.mu))


def _compile(key: CodeKey, rows: int, cols: int, run) -> NDArray:
    # plan[j] is the image of unit vector j. `run` maps a block of identity
    # columns (rows x w) to output pieces of shape (r_i, w) whose r_i sum to
    # cols; each piece is written straight into the plan
    system = code_system(key)
    per_column = 8 * key.d * system.params.alpha
    width = max(1, _PASS_BUDGET // per_column)
    plan = np.empty((rows, cols), dtype=system.field.dtype)
    for start in range(0, rows, width):
        stop = min(rows, start + width)
        unit = np.zeros((rows, stop - start), dtype=np.int64)
        unit[np.arange(start, stop), np.arange(stop - start)] = 1
        col = 0
        for piece in run(system, unit):
            plan[start:stop, col:col + len(piece)] = piece.T
            col += len(piece)
    plan.flags.writeable = False
    return plan


@lru_cache(maxsize=CACHE_SIZE)
def encode_plan(key: CodeKey) -> NDArray:
    """F x (n * alpha): file stripe -> the n shares' payloads, node by node."""
    system = code_system(key)
    p = system.params

    def run(s: CodeSystem, unit):
        sm = build_super_message(s.field, key.k, key.d, key.mu, unit)
        return [share.payload for share in encode(s.enc, sm)]

    return _compile(key, p.file_size, key.n * p.alpha, run)


@lru_cache(maxsize=CACHE_SIZE)
def helper_plan(key: CodeKey, failed: int) -> NDArray:
    """alpha x beta: one helper's payload -> its message toward `failed`.

    The message depends only on the payload and the failed node, never on
    which helper sends it, so one plan serves every helper set.
    """
    p = code_system(key).params

    def run(s: CodeSystem, unit):
        share = NodeShare(index=2 if failed == 1 else 1, payload=unit)
        return list(helper_repair_message(s.enc, s.tree, share, failed).blocks)

    return _compile(key, p.alpha, p.beta, run)


@lru_cache(maxsize=CACHE_SIZE)
def regenerate_plan(key: CodeKey, failed: int, helpers: tuple[int, ...]) -> NDArray:
    """(d * beta) x alpha: the helpers' messages, in the given helper order
    and each in segment order, -> the failed node's payload."""
    p = code_system(key).params

    def run(s: CodeSystem, unit):
        messages = [RepairMessage(failed=failed, helper=h, modes=s.tree.modes,
                                  blocks=split_blocks(unit[j * p.beta:(j + 1) * p.beta],
                                                      s.tree.widths))
                    for j, h in enumerate(helpers)]
        return [regenerate_node(s.enc, s.tree, failed, list(helpers), messages).payload]

    return _compile(key, key.d * p.beta, p.alpha, run)


@lru_cache(maxsize=CACHE_SIZE)
def recover_plan(key: CodeKey, observers: tuple[int, ...]) -> NDArray:
    """(k * alpha) x F: the observers' payloads, in the given order -> the
    file stripe."""
    p = code_system(key).params

    def run(s: CodeSystem, unit):
        shares = [NodeShare(index=node, payload=unit[j * p.alpha:(j + 1) * p.alpha])
                  for j, node in enumerate(observers)]
        return [recover_data(s.enc, s.tree, list(observers), shares)]

    return _compile(key, key.k * p.alpha, p.file_size, run)
