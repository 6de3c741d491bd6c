# Hierarchical injection tree: enumerate child pairs, derive child modes and
# signatures, compute injection matrices, and assemble the super-message
# matrix as a side-by-side concatenation of code segments

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterator, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .combin import Subset, binomial, ind_count, subset_rank, subsets_lex
from .detseg import SegmentSpec, SymbolId, build_pre_injection, free_symbols
from .fqlinalg import Field
from .params import code_params

InjectionPair = tuple[int, Subset]


def enumerate_injection_pairs(j: int, k: int, d: int) -> list[InjectionPair]:
    """All injection pairs (x, B) of a mode-j parent, in canonical order.

    A pair needs B a nonempty subset of [k+1..d] with |B| < j, and
    x in [k+1..d] with x <= max B. Order: |B| ascending, then pairs with
    x in B before pairs with x outside B, then B lexicographic, then x
    ascending. A mode-1 (or mode-0) parent has no pairs.
    """
    bottom = range(k + 1, d + 1)
    pairs: list[InjectionPair] = []
    for bsize in range(1, j):
        for inside in (True, False):
            for b in itertools.combinations(bottom, bsize):
                for x in bottom:
                    if (x in b) == inside and x <= b[-1]:
                        pairs.append((x, b))
    return pairs


def child_mode(j: int, b: Subset) -> int:
    """Mode of the child hanging off a mode-j parent via injection set B."""
    return j - len(b) - 1


def child_signature(sigma: Sequence[int], b: Subset, d: int) -> tuple[int, ...]:
    """Child signature: sigma_Q(i) = 1 + sigma_P(i) + ind_{B+{i}}(i).

    Only the parity of each component matters downstream, so entries are kept
    as plain growing integers.
    """
    bset = set(b)
    out = []
    for i in range(1, d + 1):
        merged = tuple(sorted(bset | {i}))
        out.append(1 + sigma[i - 1] + ind_count(merged, i))
    return tuple(out)


@dataclass(frozen=True)
class HierarchyTree:
    """The BFS-ordered segment tree of one cascade code, with its layout.

    segments[0] is the root (mode mu, all-zero signature); every parent's
    children appear in enumerate_injection_pairs order, and ids are dense in
    BFS order. Per segment, modes holds its mode, offsets its first column
    in M (alpha columns in all) and widths its repair-message block length
    C(d-1, m-1). layout lists the F free file symbols as (segment id,
    symbol): segments in tree order, each in free_symbols order.
    """

    k: int
    d: int
    mu: int
    segments: tuple[SegmentSpec, ...]
    pair_index: Mapping[tuple[int, InjectionPair], int]
    modes: tuple[int, ...]
    offsets: tuple[int, ...]
    widths: tuple[int, ...]
    alpha: int
    layout: tuple[tuple[int, SymbolId], ...]

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def root(self) -> SegmentSpec:
        return self.segments[0]

    def segment(self, sid: int) -> SegmentSpec:
        return self.segments[sid]

    def children_of(self, sid: int) -> tuple[int, ...]:
        # pair_index is filled in enumeration order
        return tuple(child for (parent, _), child in self.pair_index.items() if parent == sid)

    def child_with_pair(self, sid: int, pair: InjectionPair) -> int:
        """Id of the child of segment sid created by injection pair (x, B)."""
        key = (sid, (pair[0], tuple(pair[1])))
        if key not in self.pair_index:
            raise ValueError(f"segment {sid} has no child with pair {pair}")
        return self.pair_index[key]

    def mode_census(self) -> dict[int, int]:
        """How many segments carry each mode, modes in tree order."""
        return {m: self.modes.count(m) for m in dict.fromkeys(self.modes)}


@cache  # a tree is an immutable value of (k, d, mu)
def build_tree(k: int, d: int, mu: int) -> HierarchyTree:
    """Expand the injection tree breadth-first from a mode-mu root.

    Terminates because every child mode is strictly below its parent's.

    Raises:
        ValueError: Unless 1 <= mu <= k <= d.
    """
    code_params(k, d, mu)  # checks 1 <= mu <= k <= d
    segments = [SegmentSpec(0, k, d, mu, (0,) * d)]
    pair_index: dict[tuple[int, InjectionPair], int] = {}
    head = 0
    while head < len(segments):
        parent = segments[head]
        head += 1
        for pair in enumerate_injection_pairs(parent.mode, k, d):
            x, b = pair
            sid = len(segments)
            segments.append(SegmentSpec(
                segment_id=sid,
                k=k,
                d=d,
                mode=child_mode(parent.mode, b),
                signature=child_signature(parent.signature, b, d),
                parent_id=parent.segment_id,
                injection_pair=pair,
            ))
            pair_index[(parent.segment_id, (x, tuple(b)))] = sid
    modes = tuple(spec.mode for spec in segments)
    *offsets, alpha = itertools.accumulate((binomial(d, m) for m in modes), initial=0)
    return HierarchyTree(
        k=k,
        d=d,
        mu=mu,
        segments=tuple(segments),
        pair_index=pair_index,
        modes=modes,
        offsets=tuple(offsets),
        widths=tuple(binomial(d - 1, m - 1) for m in modes),
        alpha=alpha,
        layout=tuple((spec.segment_id, sym) for spec in segments
                     for sym in free_symbols(k, d, spec.mode)),
    )


def injection_sign(field: Field, parent_sigma: Sequence[int], j_set: Subset, i: int):
    """(-1)^{1 + sigma_P(i) + ind_J(i)}: the sign an injection from parent
    column J carries into row i of the child; it is its own inverse."""
    return field.signed_unit(1 + parent_sigma[i - 1] + ind_count(j_set, i))


def injection_positions(d: int, mode: int, b: Subset) -> Iterator[tuple[int, Subset, int]]:
    """(column, I, i) of every entry of a mode-m child with injection set B
    that can host an injection: i > max I, i not in B, I disjoint from B."""
    bset = set(b)
    for c, i_set in enumerate(subsets_lex(d, mode)):
        if bset.isdisjoint(i_set):
            lowest = i_set[-1] + 1 if i_set else 1
            for i in range(lowest, d + 1):
                if i not in bset:
                    yield c, i_set, i


def injection_matrix(
    field: Field,
    parent_matrix: NDArray[np.int64],
    parent_spec: SegmentSpec,
    pair: InjectionPair,
) -> NDArray[np.int64]:
    """Injection matrix Delta of the child reached from parent via (x, B).

    Entry (i, I) at each :func:`injection_positions` position equals
    :func:`injection_sign` of J = I+{i}+B times the parent entry at (x, J);
    every other entry is zero. The parent matrix may be pre- or
    post-injection (the read positions never host an injection themselves),
    and may carry a trailing stripe axis, which the result then shares.
    """
    x, b = pair
    d = parent_spec.d
    m = child_mode(parent_spec.mode, b)
    delta = np.zeros((d, binomial(d, m)) + parent_matrix.shape[2:], dtype=np.int64)
    for c, i_set, i in injection_positions(d, m, b):
        j_set = tuple(sorted(i_set + (i,) + tuple(b)))
        sign = injection_sign(field, parent_spec.signature, j_set, i)
        delta[i - 1, c] = field.mul(sign, parent_matrix[x - 1, subset_rank(d, j_set)])
    return delta


def segment_offsets(tree: HierarchyTree) -> tuple[tuple[int, ...], int]:
    """Column offset of each segment inside M, plus the total column count."""
    return tree.offsets, tree.alpha


@dataclass(frozen=True)
class SuperMessage:
    """The assembled super-message matrix and everything used to build it.

    post_matrices hold the injected segments that are actually encoded;
    pre_matrices are kept for injection bookkeeping and audits.
    """

    tree: HierarchyTree
    field: Field
    pre_matrices: tuple[NDArray[np.int64], ...]
    post_matrices: tuple[NDArray[np.int64], ...]

    @property
    def matrix(self) -> NDArray[np.int64]:
        """M: side-by-side concatenation of post-injection segments, d x alpha."""
        return np.hstack(self.post_matrices)


def build_super_message(
    field: Field,
    k: int,
    d: int,
    mu: int,
    file_symbols: Sequence[int],
) -> SuperMessage:
    """Distribute a file into the tree and assemble M in two passes.

    Pass one builds every segment's pre-injection matrix from its slice of
    the file; pass two adds each non-root segment's injection matrix, read
    from its parent's pre-injection matrix.

    Args:
        field: Field the symbols live in.
        k, d, mu: Code parameters, 1 <= mu <= k <= d.
        file_symbols: Exactly F field elements, ordered per
            tree.layout; an F x S array encodes S stripes at once,
            and every matrix then carries that trailing stripe axis.

    Raises:
        ValueError: On invalid parameters or wrong file length.
    """
    tree = build_tree(k, d, mu)
    if len(file_symbols) != len(tree.layout):
        raise ValueError(f"file must have exactly {len(tree.layout)} symbols, "
                         f"got {len(file_symbols)}")

    values = np.asarray(file_symbols, dtype=np.int64)
    per_segment: dict[int, dict[SymbolId, int]] = {spec.segment_id: {} for spec in tree.segments}
    for (sid, sym), value in zip(tree.layout, values):
        per_segment[sid][sym] = value

    pre = [build_pre_injection(field, spec, per_segment[spec.segment_id], values.shape[1:])
           for spec in tree.segments]
    post = [pre[0]]
    for spec in tree.segments[1:]:
        delta = injection_matrix(field, pre[spec.parent_id], tree.segment(spec.parent_id),
                                 spec.injection_pair)
        post.append(np.asarray(field.add(pre[spec.segment_id], delta), dtype=np.int64))
    return SuperMessage(
        tree=tree,
        field=field,
        pre_matrices=tuple(pre),
        post_matrices=tuple(post),
    )
