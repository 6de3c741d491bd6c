# One signed determinant code segment: pre-injection message matrix with
# parity completion and nulling, repair-encoder matrix, and the
# determinant-level repair and decode primitives

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .combin import Subset, binomial, ind_count, subset_rank, subsets_lex
from .fqlinalg import Field
# unused here, but bound so that perfbench/spans.py, which rebinds mat_mul by
# name in this module and in codec, finds it
from .fqlinalg import mat_mul  # noqa: F401

# entry classes of a message matrix (Def. of the three bottom-row groups,
# plus the upper rows that sit above the split)
UPPER = "upper"
D_GROUP = "injected-data"
N_GROUP = "nulled"
P_GROUP = "parity"


class SymbolId(NamedTuple):
    """One raw file symbol: kind 'v' with x in X, or kind 'w' with x in Y, x != max Y."""

    kind: str
    x: int
    index_set: Subset


@dataclass(frozen=True)
class SegmentSpec:
    """Shape, signature, and tree position of one determinant-code segment.

    The root segment has neither a parent nor an injection pair; every other
    segment has both, and its mode is parent.mode - |B| - 1.
    """

    segment_id: int
    k: int
    d: int
    mode: int
    signature: tuple[int, ...]
    parent_id: int | None = None
    injection_pair: tuple[int, Subset] | None = None

    def __post_init__(self):
        if not 0 <= self.mode <= self.d:
            raise ValueError(f"mode {self.mode} out of range for d={self.d}")
        if len(self.signature) != self.d:
            raise ValueError("signature length must equal d")
        if (self.parent_id is None) != (self.injection_pair is None):
            raise ValueError("parent link and injection pair must come together")
        if self.injection_pair is not None:
            x, b = self.injection_pair
            if not b or any(e <= self.k or e > self.d for e in b):
                raise ValueError(f"injection set {b} must be a nonempty subset of [k+1..d]")
            if not (self.k < x <= self.d) or x > max(b):
                raise ValueError(f"injection row x={x} must lie in [k+1..d] with x <= max B")

    @property
    def is_root(self) -> bool:
        return self.parent_id is None


def classify_entry(x: int, i_set: Subset, k: int) -> str:
    """Which group the entry at row x, column I belongs to.

    Rows 1..k are UPPER. For a bottom row, with A = I cap [1..k] and
    B = I cap [k+1..d]: D_GROUP when x <= max B and A is nonempty (the symbol
    is re-injected into a child), N_GROUP when x <= max B and A is empty
    (nulled to zero), P_GROUP when x > max B (recoverable from a parity
    equation). An empty B has max 0, below every bottom row, so it always
    lands in P_GROUP.
    """
    if x <= k:
        return UPPER
    if x <= max((e for e in i_set if e > k), default=0):
        return D_GROUP if any(e <= k for e in i_set) else N_GROUP
    return P_GROUP


def free_symbols(k: int, d: int, mode: int) -> list[SymbolId]:
    """The free file symbols of a mode-m segment, in canonical order.

    All v-symbols ordered by (X lex, then x ascending), then all non-parity
    w-symbols ordered by (Y lex, then x ascending). Symbols whose matrix
    position is nulled are skipped: that is exactly the columns X (resp.
    groups Y) contained in [k+1..d].
    """
    out: list[SymbolId] = []
    for x_set in subsets_lex(d, mode):
        if x_set and x_set[0] > k:
            continue
        for x in x_set:
            out.append(SymbolId("v", x, x_set))
    # mode == d leaves no room for (mode+1)-element parity groups
    if mode + 1 <= d:
        for y_set in subsets_lex(d, mode + 1):
            if y_set and y_set[0] > k:
                continue
            for x in y_set[:-1]:
                out.append(SymbolId("w", x, y_set))
    return out


def symbol_position(d: int, sym: SymbolId) -> tuple[int, int]:
    """(row, column) of a free symbol in its segment's d-row matrix.

    v_{x,X} sits at (x - 1, rank X) and w_{x,Y} at (x - 1, rank(Y - {x})).
    """
    if sym.kind == "v":
        return sym.x - 1, subset_rank(d, sym.index_set)
    return sym.x - 1, subset_rank(d, tuple(e for e in sym.index_set if e != sym.x))


def parity_entry(field: Field, sigma: Sequence[int], mat: NDArray, i_set: Subset, x: int):
    """Entry (x, I) of a signed segment, x > max I, from the rest of its group.

    The w-group Y = I + {x} satisfies the alternating parity equation
    sum_{y in Y} (-1)^{ind_Y(y)} w_{y,Y} = 0, and entry (y, Y - {y}) holds
    (-1)^{sigma(y)} w_{y,Y}. So the entry at (x, I) follows from the
    entries (t, Y - {t}), t in I, none of which is a parity position.

    Args:
        field: Field the symbols live in.
        sigma: Row signature of ``mat``; all zeros for an unsigned matrix.
        mat: d x C(d, |I|) segment matrix, optionally with a trailing stripe
            axis, which the result then carries.
        i_set: Column label I.
        x: Row of the entry, above max I.
    """
    d = mat.shape[0]
    y_set = i_set + (x,)
    acc = np.int64(0)
    for t in i_set:
        src = subset_rank(d, tuple(e for e in y_set if e != t))
        sign = field.signed_unit(sigma[t - 1] + ind_count(y_set, t))
        acc = field.add(acc, field.mul(sign, mat[t - 1, src]))
    return field.mul(field.signed_unit(sigma[x - 1] + len(i_set)), acc)


def build_pre_injection(
    field: Field,
    spec: SegmentSpec,
    symbols: Mapping[SymbolId, int],
    stripes: tuple[int, ...] = (),
) -> NDArray[np.int64]:
    """Pre-injection message matrix of one segment, d rows by C(d, m) columns.

    Entry (x, I) holds (-1)^{sigma(x)} v_{x,I} when x is in I and
    (-1)^{sigma(x)} w_{x, I+{x}} otherwise. Nulled positions are zero, and
    the parity member of every w-group is synthesized from the supplied
    members, so each fully materialized group satisfies its parity equation.
    A mode-0 segment takes no symbols: entry (x, {}) closes the one-member
    group {x}, whose parity equation makes it zero.

    Args:
        field: Field the symbols live in.
        spec: Segment shape and signature.
        symbols: Value for every free symbol of the segment, keyed by
            :class:`SymbolId`; nothing more, nothing less.
        stripes: Shape S of a trailing stripe axis: every value is then an
            array of shape S, and the result is d x C(d, m) x S.

    Raises:
        ValueError: On a missing free symbol, or a symbol supplied for a
            nulled or parity position.
    """
    d, k, m = spec.d, spec.k, spec.mode
    free = free_symbols(k, d, m)
    free_set = set(free)
    unknown = [s for s in symbols if s not in free_set]
    if unknown:
        raise ValueError(f"symbol {unknown[0]} is not a free symbol of this segment "
                         "(nulled, parity, or out of shape)")
    missing = [s for s in free if s not in symbols]
    if missing:
        raise ValueError(f"missing file symbol {missing[0]}")

    cols = subsets_lex(d, m)
    raw = np.zeros((d, len(cols)) + stripes, dtype=np.int64)
    # place the free symbols; nulled positions stay zero
    for sym, value in symbols.items():
        raw[symbol_position(d, sym)] = value

    # complete every parity member from the group it closes
    unsigned = (0,) * d
    for c, i_set in enumerate(cols):
        for x in range(max(i_set, default=0) + 1, d + 1):
            raw[x - 1, c] = parity_entry(field, unsigned, raw, i_set, x)

    signs = field.signed_unit(np.asarray(spec.signature)).reshape((d,) + (1,) * (raw.ndim - 1))
    return np.asarray(field.mul(signs, raw), dtype=np.int64)


def repair_encoder(
    field: Field,
    psi_row: NDArray[np.int64],
    sigma: tuple[int, ...],
    mode: int,
) -> NDArray[np.int64]:
    """Repair-encoder matrix for one failed node and one segment.

    Rows are labeled by m-subsets I and columns by (m-1)-subsets J of [1..d];
    the entry at (I, J) is (-1)^{sigma(y) + ind_I(y)} psi_{f,y} when
    I \\ J = {y}, and zero otherwise. Its rank is C(d-1, m-1). Mode 0 yields
    the empty 1 x 0 matrix (nothing to send).
    """
    d = len(psi_row)
    rows = subsets_lex(d, mode)
    lam = np.zeros((len(rows), binomial(d, mode - 1)), dtype=np.int64)
    for r, i_set in enumerate(rows):
        for y in i_set:
            j_set = tuple(e for e in i_set if e != y)
            sign = field.signed_unit(sigma[y - 1] + ind_count(i_set, y))
            lam[r, subset_rank(d, j_set)] = field.mul(sign, psi_row[y - 1])
    return lam


def det_repair_symbol(
    field: Field,
    repair_space: NDArray[np.int64],
    i_set: Subset,
    sigma: tuple[int, ...],
):
    """Rebuild the coded symbol at column I from a repair space R = D Lambda.

    Returns sum_{i in I} (-1)^{sigma(i) + ind_I(i)} R_{i, I \\ {i}}, which for
    an un-injected determinant segment equals [psi_f . D]_I. The empty column
    (mode 0) gives zero. A repair space with a trailing stripe axis gives one
    symbol per stripe.
    """
    d = repair_space.shape[0]
    acc = np.int64(0)
    for i in i_set:
        j_set = tuple(e for e in i_set if e != i)
        sign = field.signed_unit(sigma[i - 1] + ind_count(i_set, i))
        acc = field.add(acc, field.mul(sign, repair_space[i - 1, subset_rank(d, j_set)]))
    return acc
