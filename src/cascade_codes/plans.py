# Compiled linear plans: encode, the helper message, regenerate and recover
# are each a fixed GF(q) map, built once from a batched pass of the
# reference code over the identity, cached by key and applied as a LinearMap

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .cascade import HierarchyTree, build_super_message, build_tree
from .codec import (
    EncoderMatrix,
    NodeShare,
    encode,
    helper_repair_message,
    rebuild_payload,
    recover_data,
    semi_systematize,
    vandermonde_encoder,
)
from .fqlinalg import Field, field_for_order, mat_inverse, mat_mul
from .params import CodeParams, code_params

# plans kept per kind; a repair plan is keyed by its helper set, so an
# unbounded cache would grow with every distinct set
CACHE_SIZE = 64
# identity columns per compile pass: one d x alpha x width int64 array (the
# super-message M) fits in this many bytes. An encode pass holds M, its
# segments before and after injection and the codewords; at (8,4,6,4),
# q = 257, an encode compile peaks at 1.5 MiB traced and a recover compile
# at 1.0 MiB. 512 KiB compiles faster but peaks at 2.8 and 2.1 MiB
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


@dataclass(frozen=True)
class LinearMap:
    """A compiled GF(q) map of `shape` (inputs, outputs), applied to the
    rows of a stripe-major array.

    Dense, ``coef`` is the inputs x outputs matrix and ``idx`` is None. As an
    ELLPACK gather, ``idx`` (intp) and ``coef`` are (width, outputs): slot s
    of output column c adds coef[s, c] times input idx[s, c], and a slot a
    column does not need holds coefficient 0. :func:`linear_map` picks the
    form.
    """

    field: Field
    shape: tuple[int, int]
    coef: NDArray
    idx: NDArray | None = None

    @property
    def nbytes(self) -> int:
        return self.coef.nbytes + (0 if self.idx is None else self.idx.nbytes)

    def dense(self) -> NDArray:
        """The inputs x outputs matrix in ``field.dtype``, read-only."""
        if self.idx is None:
            return self.coef
        out = np.zeros(self.shape, dtype=self.field.dtype)
        # unused slots add 0 to a row their column may also use, so add, not assign
        np.add.at(out, (self.idx, np.arange(self.shape[1])), self.coef)
        out.flags.writeable = False
        return out

    def apply(self, rows: NDArray) -> NDArray:
        """(..., inputs) field elements -> (..., outputs) in ``field.dtype``.

        A gather runs over chunks of stripes whose temporaries fit one
        dense kernel block.
        """
        rows = np.asarray(rows)
        lead = rows.shape[:-1]  # one stripe axis, none or several
        flat = rows.reshape(math.prod(lead), self.shape[0])
        out = (mat_mul(self.field, flat, self.coef) if self.idx is None
               else self.field.gather_mul(flat, self.idx, self.coef))
        return out.reshape(lead + (self.shape[1],))


def linear_map(field: Field, plan: NDArray) -> LinearMap:
    """The LinearMap of an inputs x outputs matrix in ``field.dtype``.

    The form rule: a gather when its width (the most nonzeros in any
    output column) times ``field.gather_cost`` stays below the input count,
    else dense. The gather is built in O(nonzeros) and no dense copy is kept.
    """
    counts = np.count_nonzero(plan, axis=0)
    width = int(counts.max(initial=0))
    if width * field.gather_cost >= plan.shape[0]:
        plan.flags.writeable = False
        return LinearMap(field, plan.shape, plan)
    cols, rows = np.nonzero(plan.T)  # column-major, so each column's rows are consecutive
    slots = np.arange(len(cols)) - (np.cumsum(counts) - counts)[cols]
    idx = np.zeros((width, plan.shape[1]), dtype=np.intp)
    coef = np.zeros((width, plan.shape[1]), dtype=plan.dtype)
    idx[slots, cols] = rows
    coef[slots, cols] = plan[rows, cols]
    idx.flags.writeable = coef.flags.writeable = False
    return LinearMap(field, plan.shape, coef, idx)


def _compile(key: CodeKey, rows: int, cols: int, run) -> LinearMap:
    # plan[j] is the image of unit vector j: `run` maps a block of identity
    # columns (rows x w) to their images (cols x w)
    system = code_system(key)
    width = max(1, _PASS_BUDGET // (8 * key.d * system.params.alpha))
    plan = np.empty((rows, cols), dtype=system.field.dtype)
    for start in range(0, rows, width):
        unit = np.eye(rows, min(width, rows - start), -start, dtype=np.int64)
        plan[start:start + width] = run(system, unit).T
    return linear_map(system.field, plan)


@lru_cache(maxsize=CACHE_SIZE)
def encode_plan(key: CodeKey) -> LinearMap:
    """F x (n * alpha): file stripe -> the n shares' payloads, node by node."""
    p = code_system(key).params

    def run(s: CodeSystem, unit):
        sm = build_super_message(s.field, key.k, key.d, key.mu, unit)
        return np.concatenate([share.payload for share in encode(s.enc, sm)])

    return _compile(key, p.file_size, key.n * p.alpha, run)


@lru_cache(maxsize=CACHE_SIZE)
def helper_plan(key: CodeKey, failed: int) -> LinearMap:
    """alpha x beta: one helper's payload -> its message toward `failed`.

    The message depends only on the payload and the failed node, never on
    which helper sends it, so one plan serves every helper set.
    """
    p = code_system(key).params

    def run(s: CodeSystem, unit):
        share = NodeShare(index=2 if failed == 1 else 1, payload=unit)
        return np.concatenate(helper_repair_message(s.enc, s.tree, share, failed).blocks)

    return _compile(key, p.alpha, p.beta, run)


@lru_cache(maxsize=CACHE_SIZE)
def regenerate_plan(key: CodeKey, failed: int, helpers: tuple[int, ...]) -> LinearMap:
    """(d * beta) x alpha: the helpers' messages, in the given helper order
    and each in segment order, -> the failed node's payload."""
    system = code_system(key)
    # the one step that depends on the helpers, made once per plan
    inverse = mat_inverse(system.field, system.enc.rows(helpers))

    def run(s: CodeSystem, unit):
        q = mat_mul(s.field, inverse, unit.reshape(key.d, -1)).reshape(key.d, s.params.beta, -1)
        return rebuild_payload(s.enc, s.tree, failed, q)

    return _compile(key, key.d * system.params.beta, system.params.alpha, run)


@lru_cache(maxsize=CACHE_SIZE)
def recover_plan(key: CodeKey, observers: tuple[int, ...]) -> LinearMap:
    """(k * alpha) x F: the observers' payloads, in the given order -> the
    file stripe."""
    p = code_system(key).params

    def run(s: CodeSystem, unit):
        shares = [NodeShare(index=node, payload=unit[j * p.alpha:(j + 1) * p.alpha])
                  for j, node in enumerate(observers)]
        return recover_data(s.enc, s.tree, list(observers), shares)

    return _compile(key, key.k * p.alpha, p.file_size, run)
