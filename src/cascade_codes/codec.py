# The end-to-end code path: encoder matrices, node shares, compressed repair
# messages, exact regeneration of a failed node, and data recovery from any
# k shares

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.typing import NDArray

from .cascade import (
    HierarchyTree,
    SuperMessage,
    build_super_message,
    injection_positions,
    injection_sign,
)
from .combin import binomial, subset_rank, subsets_lex
from .detseg import (
    D_GROUP,
    N_GROUP,
    SegmentSpec,
    classify_entry,
    det_repair_symbol,
    parity_entry,
    repair_encoder,
    symbol_position,
)
from . import fqlinalg
from .fqlinalg import Field, mat_inverse, mat_mul, mat_rank

if TYPE_CHECKING:
    from .plans import LinearMap


@dataclass(frozen=True)
class EncoderMatrix:
    """An n x d encoder Psi = [Gamma | Upsilon] over a fixed field.

    A valid encoder has every k x k submatrix of Gamma invertible (E1) and
    every d x d submatrix of Psi invertible (E2).
    """

    field: Field
    psi: NDArray[np.int64]

    @property
    def n(self) -> int:
        return self.psi.shape[0]

    @property
    def d(self) -> int:
        return self.psi.shape[1]

    def row(self, i: int) -> NDArray[np.int64]:
        """Row of node i, 1-based."""
        return self.rows([i])[0]

    def rows(self, indices: Sequence[int]) -> NDArray[np.int64]:
        """Stacked rows of the given node indices, each in 1..n (else
        ValueError), in the given order."""
        for i in indices:
            if not 1 <= i <= self.n:
                raise ValueError(f"node {i} out of range 1..{self.n}")
        return self.psi[[i - 1 for i in indices]]


@dataclass(frozen=True)
class NodeShare:
    """Coded content of one node: Psi_{i,:} . M, alpha elements in M order."""

    index: int
    payload: NDArray[np.int64]


def vandermonde_encoder(field: Field, n: int, d: int) -> EncoderMatrix:
    """Vandermonde encoder with evaluation points 0..n-1.

    Row i is (1, x_i, x_i^2, ..., x_i^{d-1}) with x_i = i - 1. Distinct
    points make every d x d minor, and every k x k minor of the left block,
    invertible.

    Raises:
        ValueError: If the field has fewer than n elements.
    """
    if field.q < n:
        raise ValueError(f"field order {field.q} is too small for {n} distinct "
                         "evaluation points")
    psi = np.ones((n, d), dtype=np.int64)
    for i in range(n):
        for e in range(1, d):
            psi[i, e] = field.mul(psi[i, e - 1], i)
    return EncoderMatrix(field=field, psi=psi)


def semi_systematize(enc: EncoderMatrix, k: int) -> EncoderMatrix:
    """Equivalent encoder whose top k x d block is [I | 0].

    Multiplies Psi on the right by X = [[A^-1, -A^-1 B], [0, I]] built from
    the top blocks A = Psi[:k,:k] and B = Psi[:k,k:]. The transform preserves
    both encoder conditions, and with it the first k shares are rows of M.
    """
    field = enc.field
    d = enc.d
    a_inv = mat_inverse(field, enc.psi[:k, :k])
    top_right = field.neg(mat_mul(field, a_inv, enc.psi[:k, k:]))
    x = np.zeros((d, d), dtype=np.int64)
    x[:k, :k] = a_inv
    x[:k, k:] = top_right
    x[k:, k:] = np.eye(d - k, dtype=np.int64)
    return EncoderMatrix(field=field, psi=mat_mul(field, enc.psi, x))


def encoder_conditions_hold(enc: EncoderMatrix, k: int) -> bool:
    """Exhaustively check E1 (k x k minors of Gamma) and E2 (d x d minors of Psi)."""
    field = enc.field
    n, d = enc.n, enc.d
    for rows in itertools.combinations(range(1, n + 1), k):
        if mat_rank(field, enc.rows(rows)[:, :k]) != k:
            return False
    for rows in itertools.combinations(range(1, n + 1), d):
        if mat_rank(field, enc.rows(rows)) != d:
            return False
    return True


def _apply(field: Field, mat: NDArray, arr: NDArray) -> NDArray:
    # mat . arr along arr's first axis, keeping any trailing stripe axes
    flat = arr.reshape(arr.shape[0], math.prod(arr.shape[1:]))
    return mat_mul(field, mat, flat).reshape((mat.shape[0],) + arr.shape[1:])


def encode(enc: EncoderMatrix, sm: SuperMessage) -> list[NodeShare]:
    """Multiply the encoder into M: share i is Psi_{i,:} . M.

    A super-message with a trailing stripe axis gives payloads that carry it.

    Raises:
        ValueError: On a field or dimension mismatch.
    """
    if enc.field.q != sm.field.q:
        raise ValueError("encoder and super-message use different fields")
    if enc.d != sm.tree.d:
        raise ValueError(f"encoder width {enc.d} does not match d = {sm.tree.d}")
    codewords = _apply(enc.field, enc.psi, sm.matrix)
    return [NodeShare(index=i + 1, payload=codewords[i]) for i in range(enc.n)]


@dataclass(frozen=True)
class RepairMessage:
    """What one helper sends toward one failed node.

    One block per segment in tree order; a mode-m block carries the
    C(d-1, m-1) coordinates of the helper's repair row in the deterministic
    pivot basis of the repair encoder, so mode-0 blocks are empty and the
    total length is beta. Blocks may carry a trailing stripe axis, shape
    (width, stripes): by helper-independence one message then carries the
    helper's symbols for every stripe of a file, and crosses the wire as
    one message. Only the symbols cross it: the modes and widths are the
    segment tree's, which both ends derive from (k, d, mu).
    """

    failed: int
    helper: int
    modes: tuple[int, ...]
    blocks: tuple[NDArray[np.int64], ...]

    @property
    def total_symbols(self) -> int:
        return sum(np.size(b) for b in self.blocks)

    def to_bytes(self) -> bytes:
        """Wire layout: failed, helper, segment count (2B BE), then every
        block in segment order as 2-byte big-endian elements.

        A (width, stripes) block is written row by row: element i of stripe
        s sits at position i * stripes + s of the block.

        Raises:
            ValueError: On an element outside [0, 65536).
        """
        values = (np.concatenate(self.blocks, dtype=np.int64) if self.blocks
                  else np.zeros(0, dtype=np.int64))
        if (values >> 16).any():  # negative values shift to -1
            raise ValueError(f"message from helper {self.helper} holds an element "
                             "that does not fit in two bytes")
        header = bytes((self.failed, self.helper)) + len(self.blocks).to_bytes(2, "big")
        return header + values.astype(">u2").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, tree: HierarchyTree,
                   stripes: int | None = None) -> "RepairMessage":
        """Parse the wire layout; the receiver's tree lays out the blocks.

        Args:
            tree: The segment tree of the code; its modes and widths are
                the message's.
            stripes: The stripe count the message must carry; its blocks
                then have shape (width, stripes). None parses one stripe
                into 1-D blocks.

        Raises:
            ValueError: On input shorter than the header and, naming the
                helper, on a segment count other than the tree's, a
                negative stripe count, or a length other than the layout's.
        """
        if len(data) < 4:
            named = f" from helper {data[1]}" if len(data) > 1 else ""
            raise ValueError(f"repair message{named} is shorter than its 4-byte header")
        failed, helper = data[0], data[1]
        count = int.from_bytes(data[2:4], "big")
        if count != len(tree):
            raise ValueError(f"message from helper {helper} has {count} segments, "
                             f"the tree {len(tree)}")
        per = 1 if stripes is None else stripes
        if per < 0:
            raise ValueError(f"message from helper {helper}: stripe count {per} is negative")
        beta = sum(tree.widths)
        if len(data) != 4 + 2 * beta * per:
            raise ValueError(f"message from helper {helper} has {len(data)} bytes, "
                             f"expected {4 + 2 * beta * per} for {per} stripes")
        shape = (beta,) if stripes is None else (beta, stripes)
        values = np.frombuffer(data, dtype=">u2", offset=4).astype(np.int64).reshape(shape)
        return cls(failed=failed, helper=helper, modes=tree.modes,
                   blocks=split_blocks(values, tree.widths))


def _repair_basis(
    field: Field,
    psi_row: NDArray[np.int64],
    spec: SegmentSpec,
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    # the segment's repair encoder Lambda toward the failed row, split as
    # Lambda = Lambda[:, P] . T over its pivot columns P: the nonzero rows of
    # rref(Lambda) are T. Both ends derive this independently. rref is looked
    # up in fqlinalg at call time, so a tracer that rebinds it there sees it
    lam = repair_encoder(field, psi_row, spec.signature, spec.mode)
    reduced, pivots = fqlinalg.rref(field, lam)
    return lam[:, pivots], reduced[:len(pivots)]


def split_blocks(vector: NDArray, widths: Sequence[int]) -> tuple[NDArray, ...]:
    """Consecutive slices of the vector's first axis, one per width."""
    ends = itertools.accumulate(widths)
    return tuple(vector[end - width:end] for end, width in zip(ends, widths))


def helper_repair_message(
    enc: EncoderMatrix,
    tree: HierarchyTree,
    share: NodeShare,
    failed: int,
    plan: LinearMap | None = None,
) -> RepairMessage:
    """Compress helper h's contribution toward rebuilding node `failed`.

    Per mode-m segment, the helper's codeword slice times the repair encoder
    gives a row known to lie in the span of the encoder's pivot columns;
    only those C(d-1, m-1) coordinates are sent. A payload with a trailing
    stripe axis gives blocks that carry it.

    Args:
        plan: The compiled alpha -> beta helper map of this failed node (see
            plans.helper_plan); when given, applying it replaces the
            per-segment repair encoders.

    Raises:
        ValueError: If the helper is the failed node itself.
    """
    if share.index == failed:
        raise ValueError("a node cannot help repair itself")
    field = enc.field
    if len(share.payload) != tree.alpha:
        raise ValueError(f"share payload must have {tree.alpha} elements")
    if plan is not None:
        blocks = split_blocks(plan.apply(share.payload.T).T, tree.widths)
    else:
        blocks = []
        for spec, start in zip(tree.segments, tree.offsets):
            slice_ = share.payload[start:start + binomial(tree.d, spec.mode)]
            basis, _ = _repair_basis(field, enc.row(failed), spec)
            blocks.append(_apply(field, basis.T, slice_))
    return RepairMessage(failed=failed, helper=share.index, modes=tree.modes,
                         blocks=tuple(blocks))


def regenerate_node(
    enc: EncoderMatrix,
    tree: HierarchyTree,
    failed: int,
    helpers: Sequence[int],
    messages: Sequence[RepairMessage],
    plan: LinearMap | None = None,
) -> NodeShare:
    """Rebuild the failed node's share from d helper messages, exactly.

    The messages stack to Psi[H,:] . Q; one product with Psi[H,:]^-1 yields
    Q, which :func:`rebuild_payload` maps to the share. Message blocks with a
    trailing stripe axis give a payload that carries it.

    Args:
        plan: plans.regenerate_plan of this failed node and helper order;
            when given, applying it replaces both steps.

    Raises:
        ValueError: Unless exactly d distinct helpers, none equal to the
            failed node, with one matching message each whose modes and
            block widths are the tree's, whose stripe axis is the first
            message's, and whose symbols lie in GF(q).
    """
    field, d = enc.field, tree.d
    if len(helpers) != d or len(set(helpers)) != d:
        raise ValueError(f"need exactly d = {d} distinct helpers")
    if failed in helpers:
        raise ValueError("the failed node cannot be its own helper")
    if len(messages) != d:
        raise ValueError("need one repair message per helper")
    for h, msg in zip(helpers, messages):
        if msg.helper != h or msg.failed != failed:
            raise ValueError(f"message from node {msg.helper} for node {msg.failed} "
                             f"does not match helper {h} repairing {failed}")
        if (tuple(msg.modes) != tree.modes
                or tuple(len(block) for block in msg.blocks) != tree.widths):
            raise ValueError(f"message from helper {h} does not match the tree's "
                             "segment modes and block widths")
        # message 0 passed the width check, so it has a first block
        first = np.shape(messages[0].blocks[0])[1:]
        if any(np.shape(block)[1:] != first for block in msg.blocks):
            raise ValueError(f"message from helper {h} has a stripe axis other than "
                             f"{first}, which helper {helpers[0]}'s message carries")
    symbols = np.concatenate([block for msg in messages for block in msg.blocks])
    if symbols.size and (symbols.min() < 0 or symbols.max() >= field.q):
        row = np.nonzero((symbols < 0) | (symbols >= field.q))[0][0]  # j * beta + i: helper j
        raise ValueError(f"message from helper {helpers[row * d // len(symbols)]} "
                         f"holds a symbol outside GF({field.q})")
    if plan is not None:
        return NodeShare(index=failed, payload=plan.apply(symbols.T).T)
    stacked = symbols.reshape((d, len(symbols) // d) + symbols.shape[1:])
    q = _apply(field, mat_inverse(field, enc.rows(helpers)), stacked)
    return NodeShare(index=failed, payload=rebuild_payload(enc, tree, failed, q))


def rebuild_payload(enc: EncoderMatrix, tree: HierarchyTree, failed: int,
                    q: NDArray) -> NDArray[np.int64]:
    """The failed node's payload from Q = Psi[H,:]^-1 . messages.

    Q, shaped (d, beta[, stripes]), holds fQ . Lambda[:, P] per segment fQ
    and depends on no helper. With Lambda = Lambda[:, P] . T, each block
    times its T is the repair space R(fQ) = fQ . Lambda, made in tree order
    so a parent's is ready for its children: column I of the failed row is
    the alternating sum of R(fQ) entries, minus the parent correction
    R(fP)_{x, I+B} when I and B are disjoint (the root needs none).
    """
    field = enc.field
    d = tree.d
    payload = np.zeros((tree.alpha,) + q.shape[2:], dtype=np.int64)
    spaces: list[NDArray] = []
    # laid out as (beta, d[, stripes]), Q splits into one block per segment
    for spec, start, block in zip(tree.segments, tree.offsets,
                                  split_blocks(np.swapaxes(q, 0, 1), tree.widths)):
        _, t = _repair_basis(field, enc.row(failed), spec)
        space = np.swapaxes(_apply(field, t.T, block), 0, 1)
        spaces.append(space)
        for c, i_set in enumerate(subsets_lex(d, spec.mode)):
            value = det_repair_symbol(field, space, i_set, spec.signature)
            if not spec.is_root:
                x, b = spec.injection_pair
                if not set(i_set) & set(b):
                    parent_col = subset_rank(d, tuple(sorted(set(i_set) | set(b))))
                    correction = spaces[spec.parent_id][x - 1, parent_col]
                    value = field.sub(value, correction)
            payload[start + c] = value
    return payload


def extract_injection(
    field: Field,
    spec: SegmentSpec,
    f_mat: NDArray[np.int64],
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Split a decoded post-injection segment fS into (eS, Delta).

    Every position that can host an injection (see
    :func:`cascade.injection_positions`) is recomputed from the parity
    equation of its group, whose other members never host injections; the
    difference is the injection matrix. The root splits into (fS, 0). A
    trailing stripe axis passes through.
    """
    if spec.is_root:
        return f_mat.copy(), np.zeros_like(f_mat)
    e_mat = f_mat.copy()
    for c, i_set, i in injection_positions(spec.d, spec.mode, spec.injection_pair[1]):
        e_mat[i - 1, c] = parity_entry(field, spec.signature, f_mat, i_set, i)
    delta = np.asarray(field.sub(f_mat, e_mat), dtype=np.int64)
    return e_mat, delta


def recover_data(
    enc: EncoderMatrix,
    tree: HierarchyTree,
    observers: Sequence[int],
    shares: Sequence[NodeShare],
) -> NDArray[np.int64]:
    """Recover the original file symbols from any k shares.

    Segments are decoded mode-ascending; within a segment, columns run in
    reverse-lexicographic order. Bottom rows resolve by group: injected-data
    entries are read back out of the already-decoded child's injection
    matrix, nulled entries are zero, and parity entries are rebuilt from
    their group plus, when the segment's own injection pair admits one, the
    injected symbol fetched from a decoded sibling. Top rows then follow
    from Gamma_K^-1 . observed and Gamma_K^-1 . Upsilon_K, each made once
    per call, and the column's bottom rows. Each finished segment is split into (eS, Delta) for its parents' and
    siblings' lookups, and the file is read out of the eS matrices.

    Args:
        enc: Encoder the shares were produced with.
        tree: Segment tree of the code.
        observers: The k live node indices.
        shares: One NodeShare per observer (any order); payloads with a
            trailing stripe axis give file symbols that carry it.

    Raises:
        ValueError: Unless exactly k distinct observers with matching shares.
    """
    field = enc.field
    k, d = tree.k, tree.d
    if len(observers) != k or len(set(observers)) != k:
        raise ValueError(f"need exactly k = {k} distinct observer nodes")
    by_index = {share.index: share for share in shares}
    if sorted(by_index) != sorted(observers):
        raise ValueError("shares do not match the observer set")
    order_k = sorted(observers)
    if any(len(by_index[i].payload) != tree.alpha for i in order_k):
        raise ValueError(f"each share must carry {tree.alpha} elements")
    # observed = Gamma_K . top + Upsilon_K . bottom, so column by column
    # top = G . observed - (G . Upsilon_K) . bottom with G = Gamma_K^-1
    psi_k = enc.rows(order_k)
    gamma_inv = mat_inverse(field, psi_k[:, :k])
    g_observed = _apply(field, gamma_inv, np.stack([by_index[i].payload for i in order_k]))
    g_upsilon = mat_mul(field, gamma_inv, psi_k[:, k:])
    stripes = g_observed.shape[2:]

    extracted: dict[int, NDArray[np.int64]] = {}
    injections: dict[int, NDArray[np.int64]] = {}

    for sid in sorted(range(len(tree)), key=lambda s: (tree.modes[s], s)):
        spec = tree.segment(sid)
        cols = subsets_lex(d, spec.mode)
        mat = np.zeros((d, len(cols)) + stripes, dtype=np.int64)
        for c in reversed(range(len(cols))):
            i_set = cols[c]
            for x in range(k + 1, d + 1):
                mat[x - 1, c] = _bottom_entry(field, tree, spec, i_set, x, mat, injections)
            mat[:k, c] = field.sub(g_observed[:, tree.offsets[sid] + c],
                                   _apply(field, g_upsilon, mat[k:, c]))
        extracted[sid], injections[sid] = extract_injection(field, spec, mat)

    out = np.zeros((len(tree.layout),) + stripes, dtype=np.int64)
    for pos, (sid, sym) in enumerate(tree.layout):
        sign = field.signed_unit(tree.segment(sid).signature[sym.x - 1])
        out[pos] = field.mul(sign, extracted[sid][symbol_position(d, sym)])
    return out


def _bottom_entry(field, tree, spec, i_set, x, mat, injections):
    # one bottom-row entry of fS at (x, I), by group dispatch
    k = spec.k
    group = classify_entry(x, i_set, k)
    if group == N_GROUP:
        return np.int64(0)
    if group == D_GROUP:
        a = tuple(e for e in i_set if e <= k)
        b = tuple(e for e in i_set if e > k)
        child = tree.child_with_pair(spec.segment_id, (x, b))
        return _primary_symbol(field, spec.signature, a, b, injections[child])
    # parity entry: rebuild from the group, then add the injected symbol
    value = parity_entry(field, spec.signature, mat, i_set, x)
    if spec.is_root:
        return value
    y, b_own = spec.injection_pair
    if x in b_own or set(i_set) & set(b_own):
        return value
    a = tuple(e for e in i_set if e <= k)
    if not a:
        # the injected symbol came from a nulled parent entry
        return value
    parent = tree.segment(spec.parent_id)
    b_full = tuple(sorted((set(i_set) - set(a)) | {x} | set(b_own)))
    sibling = tree.child_with_pair(parent.segment_id, (y, b_full))
    source = _primary_symbol(field, parent.signature, a, b_full, injections[sibling])
    j_set = tuple(sorted(set(i_set) | {x} | set(b_own)))
    sign = injection_sign(field, parent.signature, j_set, x)
    return field.add(value, field.mul(sign, source))


def _primary_symbol(field, parent_sigma, a, b, delta):
    # parent entry P_{x, A+B} read back out of the child's injection matrix
    # at (max A, A\{max A}); the primary-injection sign is self-inverse
    d = delta.shape[0]
    mx = a[-1]
    merged = tuple(sorted(set(a) | set(b)))
    sign = injection_sign(field, parent_sigma, merged, mx)
    col = subset_rank(d, a[:-1])
    return field.mul(sign, delta[mx - 1, col])


def repair_overlap_dim(
    enc: EncoderMatrix,
    tree: HierarchyTree,
    helper: int,
    failed_a: int,
    failed_b: int,
) -> int:
    """Measured overlap of the helper's repair messages toward two failures.

    Encodes the F x F identity, so that each symbol the helper sends toward
    a failed node is a row: a linear functional of the file. With A and B
    the two messages, the overlap is rank(A) + rank(B) - rank([A; B]).

    Raises:
        ValueError: Unless helper and the two failed nodes are distinct.
    """
    if len({helper, failed_a, failed_b}) != 3:
        raise ValueError("helper and the two failed nodes must be distinct")
    field = enc.field
    unit_files = np.eye(len(tree.layout), dtype=np.int64)
    sm = build_super_message(field, tree.k, tree.d, tree.mu, unit_files)
    # column j of the helper's share is its share of unit file j
    share = encode(enc, sm)[helper - 1]
    a, b = (np.concatenate(helper_repair_message(enc, tree, share, failed).blocks)
            for failed in (failed_a, failed_b))
    return mat_rank(field, a) + mat_rank(field, b) - mat_rank(field, np.vstack([a, b]))
