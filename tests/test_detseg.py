# Signed determinant segments: entry classification, free symbols, parity
# completion, nulling, and the repair/decode primitives

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_codes.cascade import build_tree
from cascade_codes.combin import binomial, subset_rank, subsets_lex
from cascade_codes.detseg import (
    D_GROUP,
    N_GROUP,
    P_GROUP,
    UPPER,
    SegmentSpec,
    SymbolId,
    build_pre_injection,
    classify_entry,
    det_repair_symbol,
    free_symbols,
    parity_entry,
    repair_encoder,
    symbol_position,
)
from cascade_codes.fqlinalg import PrimeField, field_for_order, mat_mul, mat_rank


def _segment(k, d, mode, sigma=None, seed=0):
    # a filled pre-injection segment with pseudorandom free symbols
    field = PrimeField(7)
    spec = SegmentSpec(segment_id=0, k=k, d=d, mode=mode,
                       signature=sigma or (0,) * d)
    rng = random.Random(seed)
    symbols = {sym: rng.randrange(7) for sym in free_symbols(k, d, mode)}
    return field, spec, symbols, build_pre_injection(field, spec, symbols)


def test_segment_spec_validation():
    SegmentSpec(segment_id=0, k=3, d=4, mode=2, signature=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        SegmentSpec(segment_id=0, k=3, d=4, mode=5, signature=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        SegmentSpec(segment_id=0, k=3, d=4, mode=2, signature=(0, 0, 0))
    with pytest.raises(ValueError):
        SegmentSpec(segment_id=1, k=3, d=4, mode=1, signature=(0,) * 4, parent_id=0)
    with pytest.raises(ValueError):
        SegmentSpec(segment_id=1, k=3, d=4, mode=1, signature=(0,) * 4,
                    parent_id=0, injection_pair=(3, (4,)))
    with pytest.raises(ValueError):
        SegmentSpec(segment_id=1, k=3, d=4, mode=1, signature=(0,) * 4,
                    parent_id=0, injection_pair=(4, ()))
    ok = SegmentSpec(segment_id=1, k=3, d=4, mode=0, signature=(0,) * 4,
                     parent_id=0, injection_pair=(4, (4,)))
    assert not ok.is_root


def test_classify_entry_examples():
    assert classify_entry(5, (1, 2, 3, 5), 4) == D_GROUP
    assert classify_entry(5, (5, 6), 4) == N_GROUP
    assert classify_entry(5, (1, 2, 3, 4), 4) == P_GROUP
    assert classify_entry(3, (1, 2), 4) == UPPER
    # empty bottom part always lands in the parity group
    assert classify_entry(6, (1, 2), 4) == P_GROUP
    assert classify_entry(6, (), 4) == P_GROUP


def test_free_symbols_order_and_membership():
    syms = free_symbols(4, 6, 2)
    # v symbols first, ordered by column then row; w symbols after
    kinds = [s.kind for s in syms]
    assert kinds == sorted(kinds)
    v_part = [s for s in syms if s.kind == "v"]
    assert v_part[0] == SymbolId("v", 1, (1, 2))
    assert v_part[1] == SymbolId("v", 2, (1, 2))
    for s in syms:
        if s.kind == "v":
            assert s.x in s.index_set
            assert len(s.index_set) == 2
            assert any(e <= 4 for e in s.index_set)
        else:
            assert s.x in s.index_set and s.x != max(s.index_set)
            assert len(s.index_set) == 3
            assert any(e <= 4 for e in s.index_set)
    # nulled ids are excluded
    assert SymbolId("v", 5, (5, 6)) not in syms
    assert SymbolId("w", 5, (5, 6)) not in set(free_symbols(4, 6, 1))


def test_free_symbol_count_formula():
    for d in range(1, 7):
        for k in range(1, d + 1):
            for m in range(0, d + 1):
                want = m * (binomial(d + 1, m + 1) - binomial(d - k + 1, m + 1))
                assert len(free_symbols(k, d, m)) == want


def test_parity_value_examples():
    # w_{max Y, Y} from the other members w_{t, Y}, stored at (t, Y - {t})
    field = PrimeField(7)
    unsigned = (0,) * 6
    mat = np.zeros((6, 6), dtype=np.int64)
    mat[5 - 1, subset_rank(6, (6,))] = 3
    assert parity_entry(field, unsigned, mat, (5,), 6) == 3
    mat = np.zeros((3, 3), dtype=np.int64)
    assert parity_entry(field, unsigned[:3], mat, (1, 2), 3) == 0
    a, b = 2, 6
    mat[1 - 1, subset_rank(3, (2, 3))] = a
    mat[2 - 1, subset_rank(3, (1, 3))] = b
    assert parity_entry(field, unsigned[:3], mat, (1, 2), 3) == (b - a) % 7
    # a signed matrix holds (-1)^sigma(t) w_{t, Y}, the result included
    mat[1 - 1, subset_rank(3, (2, 3))] = -a % 7
    assert parity_entry(field, (1, 0, 1), mat, (1, 2), 3) == (a - b) % 7


def test_parity_groups_sum_to_zero():
    # every fully materialized w-group of a built segment satisfies the
    # alternating parity equation
    from cascade_codes.combin import ind_count

    for k, d, m in [(4, 6, 2), (3, 4, 2), (4, 4, 3), (2, 5, 2)]:
        field, spec, symbols, mat = _segment(k, d, m, seed=k + d + m)
        for y_set in subsets_lex(d, m + 1):
            acc = 0
            for y in y_set:
                col = subset_rank(d, tuple(e for e in y_set if e != y))
                raw = int(field.mul(field.signed_unit(spec.signature[y - 1]),
                                    mat[y - 1, col]))
                acc += (-1) ** ind_count(y_set, y) * raw
            assert acc % 7 == 0


def test_build_mode_zero():
    field = PrimeField(7)
    spec = SegmentSpec(segment_id=0, k=3, d=5, mode=0, signature=(1, 2, 3, 4, 5))
    mat = build_pre_injection(field, spec, {})
    assert mat.shape == (5, 1)
    assert not mat.any()
    with pytest.raises(ValueError):
        build_pre_injection(field, spec, {SymbolId("v", 1, (1,)): 1})


def test_build_places_and_derives_entries():
    field, spec, symbols, mat = _segment(6, 6, 4, seed=5)
    col = subset_rank(6, (1, 2, 3, 4))
    assert int(mat[0, col]) == symbols[SymbolId("v", 1, (1, 2, 3, 4))]
    # the parity member of Y = {1,2,3,4,5} closes its alternating sum
    y = (1, 2, 3, 4, 5)
    w = {t: symbols[SymbolId("w", t, y)] for t in (1, 2, 3, 4)}
    want = (-w[1] + w[2] - w[3] + w[4]) % 7
    assert int(mat[4, col]) == want


def test_build_applies_row_signs():
    sigma = (2, 2, 2, 2, 2, 3)
    field, spec, symbols, mat = _segment(6, 6, 1, sigma=sigma, seed=8)
    col = subset_rank(6, (6,))
    value = symbols[SymbolId("v", 6, (6,))]
    assert int(mat[5, col]) == (-value) % 7
    col2 = subset_rank(6, (1,))
    assert int(mat[0, col2]) == symbols[SymbolId("v", 1, (1,))]


def test_build_nulls_bottom_only_entries():
    # v entries whose column sits entirely above k are zeroed
    field, spec, symbols, mat = _segment(4, 6, 2, seed=2)
    col = subset_rank(6, (5, 6))
    assert int(mat[4, col]) == 0
    assert int(mat[5, col]) == 0
    # the whole w-group {5,6} is nulled wherever it appears, parity
    # member included
    field, spec, symbols, mat = _segment(4, 6, 1, seed=3)
    assert int(mat[4, subset_rank(6, (6,))]) == 0
    assert int(mat[5, subset_rank(6, (5,))]) == 0
    assert int(mat[4, subset_rank(6, (5,))]) == 0
    assert int(mat[5, subset_rank(6, (6,))]) == 0


POINTS = [(k, d, mu) for d in range(1, 8) for k in range(1, min(d, 5) + 1)
          for mu in range(1, k + 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POINTS), st.sampled_from([13, 257, 256]))
def test_build_places_each_free_symbol_at_its_position(point, q):
    # free symbol j gets unit vector e_j along a stripe axis, so the entry at
    # its position must be e_j exactly: nothing else lands there
    k, d, mu = point
    field = field_for_order(q)
    for spec in build_tree(k, d, mu).segments:
        unsigned = dataclasses.replace(spec, signature=(0,) * d)
        free = free_symbols(k, d, spec.mode)
        units = np.eye(len(free), dtype=np.int64)
        mat = build_pre_injection(field, unsigned, dict(zip(free, units)), (len(free),))
        positions = [symbol_position(d, sym) for sym in free]
        assert len(set(positions)) == len(free)
        cols = subsets_lex(d, spec.mode)
        for sym, unit, (row, col) in zip(free, units, positions):
            i_set = cols[col]
            assert row == sym.x - 1
            assert sym.index_set == (i_set if sym.kind == "v" else tuple(sorted(i_set + (sym.x,))))
            assert np.array_equal(mat[row, col], unit)


def test_build_rejects_bad_symbol_sets():
    field = PrimeField(7)
    spec = SegmentSpec(segment_id=0, k=4, d=6, mode=2, signature=(0,) * 6)
    good = {sym: 1 for sym in free_symbols(4, 6, 2)}
    build_pre_injection(field, spec, good)
    short = dict(good)
    short.pop(SymbolId("v", 1, (1, 2)))
    with pytest.raises(ValueError):
        build_pre_injection(field, spec, short)
    extra = dict(good)
    extra[SymbolId("v", 5, (5, 6))] = 1
    with pytest.raises(ValueError):
        build_pre_injection(field, spec, extra)
    parity = dict(good)
    parity[SymbolId("w", 3, (1, 2, 3))] = 1
    with pytest.raises(ValueError):
        build_pre_injection(field, spec, parity)


def test_repair_encoder_entries():
    field = PrimeField(7)
    psi = np.array([1, 2, 3, 4], dtype=np.int64)
    sigma = (0, 0, 0, 0)
    lam = repair_encoder(field, psi, sigma, 2)
    assert lam.shape == (binomial(4, 2), binomial(4, 1))
    # row I = {2,3}: dropping 3 leaves y = 2 at index 1, dropping 2
    # leaves y = 3 at index 2, so the signs alternate
    row = subset_rank(4, (2, 3))
    assert int(lam[row, subset_rank(4, (3,))]) == (-psi[1]) % 7
    assert int(lam[row, subset_rank(4, (2,))]) == int(psi[2])
    # J not inside I gives zero
    assert int(lam[row, subset_rank(4, (4,))]) == 0


def test_repair_encoder_mode_zero_empty():
    field = PrimeField(7)
    lam = repair_encoder(field, np.array([1, 2, 3, 4], dtype=np.int64), (0,) * 4, 0)
    assert lam.shape == (1, 0)


def test_repair_encoder_rank():
    field = PrimeField(11)
    for d in range(2, 7):
        for f in range(1, 7):
            psi = np.array([pow(f - 1, e, 11) for e in range(d)], dtype=np.int64)
            for m in range(1, d + 1):
                lam = repair_encoder(field, psi, tuple(range(d)), m)
                assert mat_rank(field, lam) == binomial(d - 1, m - 1)


def test_det_repair_symbol_sign_pattern():
    # the alternating expansion at I = {1,2,3,6} with an all-zero signature
    field = PrimeField(7)
    d, m = 6, 4
    i_set = (1, 2, 3, 6)
    signs = {}
    for i in i_set:
        space = np.zeros((d, binomial(d, m - 1)), dtype=np.int64)
        space[i - 1, subset_rank(d, tuple(e for e in i_set if e != i))] = 1
        signs[i] = int(det_repair_symbol(field, space, i_set, (0,) * d))
    assert signs == {1: 6, 2: 1, 3: 6, 6: 1}


def test_det_repair_symbol_matches_encoding():
    # R = D Lambda reproduces psi_f . D column by column
    field = PrimeField(7)
    d, m = 4, 2
    for seed in range(3):
        _, spec, _, mat = _segment(4, 4, m, sigma=(0, 1, 1, 0), seed=seed)
        for f in range(1, 6):
            psi = np.array([pow(f, e, 7) for e in range(d)], dtype=np.int64)
            lam = repair_encoder(field, psi, spec.signature, m)
            space = mat_mul(field, mat, lam)
            direct = mat_mul(field, psi[None, :], mat)[0]
            for c, i_set in enumerate(subsets_lex(d, m)):
                assert det_repair_symbol(field, space, i_set, spec.signature) \
                    == int(direct[c])
    zero_space = np.zeros((d, binomial(d, m - 1)), dtype=np.int64)
    assert det_repair_symbol(field, zero_space, (1, 2), (0,) * d) == 0

