# Hierarchy construction: injection pair enumeration, child signatures,
# tree building, injection matrices, and super-message assembly

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_codes.cascade import (
    build_super_message,
    build_tree,
    child_mode,
    child_signature,
    enumerate_injection_pairs,
    injection_matrix,
    segment_offsets,
)
from cascade_codes.combin import binomial, subset_rank, subsets_lex
from cascade_codes.detseg import SymbolId, build_pre_injection, free_symbols
from cascade_codes.detseg import symbol_position
from cascade_codes.fqlinalg import PrimeField
from cascade_codes.params import code_params
from oracles import oracle_t_sequence
from oracles import oracle_binomial


def test_enumerate_injection_pairs_order():
    assert enumerate_injection_pairs(4, 4, 6) == [
        (5, (5,)),
        (6, (6,)),
        (5, (6,)),
        (5, (5, 6)),
        (6, (5, 6)),
    ]
    assert enumerate_injection_pairs(2, 4, 6) == [(5, (5,)), (6, (6,)), (5, (6,))]
    assert enumerate_injection_pairs(1, 4, 6) == []
    assert enumerate_injection_pairs(3, 4, 4) == []


def test_enumerate_injection_pairs_properties():
    for k in range(1, 5):
        for d in range(k, k + 4):
            for j in range(1, d + 1):
                pairs = enumerate_injection_pairs(j, k, d)
                assert len(set(pairs)) == len(pairs)
                for x, b in pairs:
                    assert 1 <= len(b) < j
                    assert all(k + 1 <= e <= d for e in b)
                    assert k + 1 <= x <= max(b)
                    assert 0 <= child_mode(j, b) < j


def test_child_mode_examples():
    assert child_mode(4, (6,)) == 2
    assert child_mode(4, (5, 6)) == 1
    assert child_mode(2, (5,)) == 0


def test_child_signature_examples():
    root = (0,) * 6
    assert child_signature(root, (5,), 6) == (2, 2, 2, 2, 2, 3)
    assert child_signature(root, (5, 6), 6) == (2, 2, 2, 2, 2, 3)
    assert child_signature(root, (6,), 6) == (2, 2, 2, 2, 2, 2)
    nested = child_signature((2, 2, 2, 2, 2, 3), (5,), 6)
    assert nested == (4, 4, 4, 4, 4, 6)


def test_child_signature_parity_shift():
    # the sign parity of position i shifts by the number of injection
    # positions strictly below it, plus one when i itself is injected
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randrange(2, 8)
        sigma = tuple(rng.randrange(6) for _ in range(d))
        bsize = rng.randrange(1, d + 1)
        b = tuple(sorted(rng.sample(range(1, d + 1), bsize)))
        child = child_signature(sigma, b, d)
        for i in range(1, d + 1):
            flip = (child[i - 1] - sigma[i - 1]) % 2
            if i in b:
                assert flip == (1 + sum(1 for e in b if e <= i)) % 2
            else:
                assert flip == sum(1 for e in b if e < i) % 2


def test_build_tree_shapes():
    tree = build_tree(4, 6, 4)
    assert len(tree) == 15
    assert tree.mode_census() == {4: 1, 2: 3, 1: 2, 0: 9}
    root = tree.root
    assert root.segment_id == 0 and root.is_root
    assert root.mode == 4 and root.signature == (0,) * 6

    single = build_tree(3, 5, 1)
    assert len(single) == 1 and single.root.mode == 1

    small = build_tree(3, 4, 2)
    assert small.mode_census() == {2: 1, 0: 1}


def test_build_tree_matches_t_sequence():
    for d in range(1, 7):
        for k in range(1, d + 1):
            for mu in range(1, k + 1):
                tree = build_tree(k, d, mu)
                t_seq = oracle_t_sequence(k, d, mu)
                census = tree.mode_census()
                for m in range(mu + 1):
                    assert census.get(m, 0) == t_seq[m]


def test_build_tree_parent_links():
    tree = build_tree(4, 6, 4)
    for seg in tree.segments:
        if seg.is_root:
            continue
        parent = tree.segment(seg.parent_id)
        x, b = seg.injection_pair
        assert seg.mode == child_mode(parent.mode, b)
        assert seg.signature == child_signature(parent.signature, b, 6)
        child_id = tree.child_with_pair(parent.segment_id, seg.injection_pair)
        assert child_id == seg.segment_id
    kids = [tree.segment(cid) for cid in tree.children_of(0)]
    assert [s.injection_pair for s in kids] == enumerate_injection_pairs(4, 4, 6)
    with pytest.raises(ValueError):
        tree.child_with_pair(0, (6, (5,)))


def test_build_tree_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_tree(0, 4, 1)
    with pytest.raises(ValueError):
        build_tree(4, 3, 2)
    with pytest.raises(ValueError):
        build_tree(3, 4, 4)


def _root_pre(field, k, d, mu, seed=0):
    from cascade_codes.detseg import SegmentSpec

    spec = SegmentSpec(segment_id=0, k=k, d=d, mode=mu, signature=(0,) * d)
    rng = random.Random(seed)
    symbols = {s: rng.randrange(field.q) for s in free_symbols(k, d, mu)}
    return spec, symbols, build_pre_injection(field, spec, symbols)


def test_injection_matrix_entry_and_support():
    field = PrimeField(7)
    spec, symbols, mat = _root_pre(field, 4, 6, 4, seed=9)
    delta = injection_matrix(field, mat, spec, (6, (6,)))
    assert delta.shape == (6, binomial(6, 2))
    # target (4, {1,2}) receives the parent parity entry at (6, {1,2,4,6})
    col = subset_rank(6, (1, 2))
    assert int(delta[3, col]) == symbols[SymbolId("v", 6, (1, 2, 4, 6))]
    for c, i_set in enumerate(subsets_lex(6, 2)):
        for i in range(1, 7):
            if delta[i - 1, c]:
                assert i > max(i_set)
                assert i != 6
                assert 6 not in i_set


def test_injection_matrix_overlapping_columns_zero():
    field = PrimeField(7)
    spec, symbols, mat = _root_pre(field, 4, 6, 4, seed=3)
    delta = injection_matrix(field, mat, spec, (5, (5, 6)))
    for c, i_set in enumerate(subsets_lex(6, 1)):
        if set(i_set) & {5, 6}:
            assert not delta[:, c].any()


def test_injection_matrix_full_bottom_set_targets_upper_rows():
    field = PrimeField(7)
    spec, symbols, mat = _root_pre(field, 4, 6, 4, seed=4)
    delta = injection_matrix(field, mat, spec, (6, (5, 6)))
    assert not delta[4:, :].any()
    assert delta[:4, :].any()


def test_segment_offsets_cover_alpha():
    tree = build_tree(4, 6, 4)
    offsets, alpha = segment_offsets(tree)
    assert alpha == 81
    widths = [binomial(6, s.mode) for s in tree.segments]
    assert offsets[0] == 0
    for sid in range(1, len(tree)):
        assert offsets[sid] == offsets[sid - 1] + widths[sid - 1]
    assert offsets[-1] + widths[-1] == alpha


def test_file_symbol_layout_sizes():
    assert len(build_tree(4, 6, 4).layout) == 324
    for k in range(1, 6):
        for d in range(k, 7):
            assert len(build_tree(k, d, 1).layout) == k * (2 * d - k + 1) // 2
    layout = build_tree(3, 5, 2).layout
    assert len(set(layout)) == len(layout)
    for sid, sym in layout:
        assert sym in free_symbols(3, 5, build_tree(3, 5, 2).segment(sid).mode)


LAYOUT_POINTS = [(k, d, mu) for k in range(1, 6) for d in range(k, 8)
                 for mu in range(1, k + 1)]


# Hypothesis stops once every point has been drawn, so this covers them all
@settings(max_examples=2 * len(LAYOUT_POINTS), deadline=None)
@given(st.sampled_from(LAYOUT_POINTS))
def test_tree_layout_fields(point):
    k, d, mu = point
    tree = build_tree(k, d, mu)
    params = code_params(k, d, mu)
    sizes = [oracle_binomial(d, spec.mode) for spec in tree.segments]
    assert tree.modes == tuple(spec.mode for spec in tree.segments)
    assert list(tree.offsets) == [sum(sizes[:sid]) for sid in range(len(tree))]
    assert tree.alpha == sum(sizes) == params.alpha
    assert tree.widths == tuple(oracle_binomial(d - 1, m - 1) for m in tree.modes)
    assert sum(tree.widths) == params.beta
    assert len(tree.layout) == params.file_size
    assert list(tree.layout) == [(spec.segment_id, sym) for spec in tree.segments
                                 for sym in free_symbols(k, d, spec.mode)]
    positions = {(sid, symbol_position(d, sym)) for sid, sym in tree.layout}
    assert len(positions) == len(tree.layout)


def test_build_super_message_shapes_and_zero():
    field = PrimeField(7)
    sm = build_super_message(field, 4, 6, 4, [0] * 324)
    assert sm.tree.alpha == 81
    assert sm.matrix.shape == (6, 81)
    assert not sm.matrix.any()
    with pytest.raises(ValueError):
        build_super_message(field, 4, 6, 4, [0] * 323)


def test_build_super_message_segment_columns():
    field = PrimeField(7)
    rng = random.Random(21)
    data = [rng.randrange(7) for _ in range(324)]
    sm = build_super_message(field, 4, 6, 4, data)
    offsets, alpha = segment_offsets(sm.tree)
    assert alpha == sm.matrix.shape[1]
    for sid in range(len(sm.tree)):
        start = offsets[sid]
        stop = start + binomial(6, sm.tree.segment(sid).mode)
        assert np.array_equal(sm.matrix[:, start:stop], sm.post_matrices[sid])


def test_build_super_message_preserves_file_symbols():
    # pre-injection matrices hold the raw file symbols at their layout
    # positions, up to the fixed row sign
    field = PrimeField(7)
    rng = random.Random(33)
    data = [rng.randrange(7) for _ in range(324)]
    sm = build_super_message(field, 4, 6, 4, data)
    layout = sm.tree.layout
    for value, (sid, sym) in zip(data, layout):
        spec = sm.tree.segment(sid)
        if sym.kind == "v":
            row, col_set = sym.x, sym.index_set
        else:
            row = sym.x
            col_set = tuple(e for e in sym.index_set if e != sym.x)
        stored = sm.pre_matrices[sid][row - 1, subset_rank(6, col_set)]
        sign = field.signed_unit(spec.signature[row - 1])
        assert int(field.mul(sign, stored)) == value


def test_injection_reads_survive_injection():
    # positions an injection reads from its parent are never themselves
    # injection targets, so pre and post parent matrices agree there
    field = PrimeField(7)
    rng = random.Random(44)
    data = [rng.randrange(7) for _ in range(324)]
    sm = build_super_message(field, 4, 6, 4, data)
    for seg in sm.tree.segments:
        if seg.is_root:
            continue
        parent = sm.tree.segment(seg.parent_id)
        from_pre = injection_matrix(field, sm.pre_matrices[parent.segment_id],
                                    parent, seg.injection_pair)
        from_post = injection_matrix(field, sm.post_matrices[parent.segment_id],
                                     parent, seg.injection_pair)
        assert np.array_equal(from_pre, from_post)
        assert np.array_equal(
            sm.post_matrices[seg.segment_id],
            (sm.pre_matrices[seg.segment_id] + from_post) % 7)
