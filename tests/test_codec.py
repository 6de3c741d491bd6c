# End-to-end code path: encoder matrices, node shares, repair messages,
# node regeneration, and full data recovery

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_codes.cascade import build_super_message, build_tree
from cascade_codes.codec import (
    NodeShare,
    RepairMessage,
    _repair_basis,
    encode,
    encoder_conditions_hold,
    extract_injection,
    helper_repair_message,
    rebuild_payload,
    recover_data,
    regenerate_node,
    repair_overlap_dim,
    semi_systematize,
    vandermonde_encoder,
)
from cascade_codes.combin import binomial
from cascade_codes.detseg import repair_encoder
from cascade_codes.fqlinalg import (
    PrimeField,
    field_for_order,
    mat_inverse,
    mat_mul,
    mat_rank,
)
from cascade_codes.params import code_params, overlap_dimension_formula
from cascade_codes.plans import CodeKey, regenerate_plan


def _system(n, k, d, mu, q=7, seed=0, semi=False):
    field = PrimeField(q)
    enc = vandermonde_encoder(field, n, d)
    if semi:
        enc = semi_systematize(enc, k)
    tree = build_tree(k, d, mu)
    rng = random.Random(seed)
    f_size = code_params(k, d, mu).file_size
    data = [rng.randrange(q) for _ in range(f_size)]
    sm = build_super_message(field, k, d, mu, data)
    return field, enc, tree, data, sm, encode(enc, sm)


def test_vandermonde_encoder_conditions():
    field = PrimeField(7)
    enc = vandermonde_encoder(field, 6, 4)
    assert enc.n == 6 and enc.d == 4
    for k in range(1, 5):
        assert encoder_conditions_hold(enc, k)
    # every d-row minor is invertible, checked directly
    for rows in itertools.combinations(range(1, 7), 4):
        assert mat_rank(field, enc.rows(rows)) == 4


def test_vandermonde_encoder_square_and_errors():
    field = PrimeField(7)
    square = vandermonde_encoder(field, 4, 4)
    assert encoder_conditions_hold(square, 4)
    with pytest.raises(ValueError):
        vandermonde_encoder(PrimeField(5), 6, 4)


def test_semi_systematize_identity_block():
    field = PrimeField(11)
    enc = semi_systematize(vandermonde_encoder(field, 7, 5), 3)
    top = enc.psi[:3]
    assert np.array_equal(top[:, :3], np.eye(3, dtype=np.int64))
    assert not top[:, 3:].any()
    assert encoder_conditions_hold(enc, 3)
    again = semi_systematize(enc, 3)
    assert np.array_equal(again.psi, enc.psi)


def test_encode_share_shapes():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2)
    assert [s.index for s in shares] == [1, 2, 3, 4, 5, 6]
    alpha = code_params(3, 4, 2).alpha
    for share in shares:
        assert share.payload.shape == (alpha,)
    direct = mat_mul(field, enc.psi, sm.matrix)
    for share in shares:
        assert np.array_equal(share.payload, direct[share.index - 1])


def test_encode_zero_file_and_mismatches():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2)
    zero_sm = build_super_message(field, 3, 4, 2, [0] * len(data))
    for share in encode(enc, zero_sm):
        assert not share.payload.any()
    other_field = PrimeField(11)
    with pytest.raises(ValueError):
        encode(vandermonde_encoder(other_field, 6, 4), sm)
    with pytest.raises(ValueError):
        encode(vandermonde_encoder(field, 6, 3), sm)


def test_semi_systematic_shares_expose_message_rows():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=5, semi=True)
    for i in range(3):
        assert np.array_equal(shares[i].payload, sm.matrix[i])


def test_repair_message_wire_round_trip():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=2)
    msg = helper_repair_message(enc, tree, shares[1], 1)
    assert msg.failed == 1 and msg.helper == 2
    beta = code_params(3, 4, 2).beta
    assert msg.total_symbols == beta
    for mode, block in zip(msg.modes, msg.blocks):
        assert len(block) == binomial(3, mode - 1) if mode else len(block) == 0
    wire = msg.to_bytes()
    back = RepairMessage.from_bytes(wire, tree)
    assert back.failed == msg.failed and back.helper == msg.helper
    assert back.modes == msg.modes
    for a, b in zip(back.blocks, msg.blocks):
        assert np.array_equal(a, b)
    assert back.to_bytes() == wire


def test_repair_message_wire_errors():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=3)
    wire = helper_repair_message(enc, tree, shares[0], 2).to_bytes()
    with pytest.raises(ValueError, match="from helper 1 "):
        RepairMessage.from_bytes(wire[:-1], tree)
    with pytest.raises(ValueError, match="from helper 1 "):
        RepairMessage.from_bytes(wire + b"\x00", tree)
    with pytest.raises(ValueError):
        RepairMessage.from_bytes(b"", tree)


def test_helper_repair_message_rejects_self_help():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2)
    with pytest.raises(ValueError):
        helper_repair_message(enc, tree, shares[0], 1)
    with pytest.raises(ValueError):
        helper_repair_message(enc, tree, NodeShare(2, shares[1].payload[:-1]), 1)


def test_regenerate_node_validation():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2)
    helpers = [2, 3, 4, 5]
    messages = [helper_repair_message(enc, tree, shares[h - 1], 1) for h in helpers]
    with pytest.raises(ValueError):
        regenerate_node(enc, tree, 1, [2, 2, 3, 4], messages)
    with pytest.raises(ValueError):
        regenerate_node(enc, tree, 2, helpers, messages)
    with pytest.raises(ValueError):
        regenerate_node(enc, tree, 1, helpers, messages[:-1])
    with pytest.raises(ValueError):
        regenerate_node(enc, tree, 1, [2, 3, 4, 6], messages)


def test_regenerate_node_rejects_misplaced_blocks():
    # the messages are concatenated and re-split by the tree's widths, so a
    # block under the wrong mode or in the wrong segment must be refused
    field, enc, tree, data, sm, shares = _system(8, 4, 6, 4, q=257)
    helpers = [1, 3, 4, 5, 6, 7]
    messages = [helper_repair_message(enc, tree, shares[h - 1], 2) for h in helpers]
    good = messages[2]
    j = next(s for s, block in enumerate(good.blocks) if len(block) != len(good.blocks[0]))
    swapped = list(good.blocks)
    swapped[0], swapped[j] = swapped[j], swapped[0]
    for bad in (RepairMessage(2, 4, tuple(reversed(good.modes)), good.blocks),
                RepairMessage(2, 4, good.modes, tuple(swapped))):
        messages[2] = bad
        with pytest.raises(ValueError, match="from helper 4 "):
            regenerate_node(enc, tree, 2, helpers, messages)


@pytest.mark.parametrize("compiled", [False, True], ids=["reference", "plan"])
def test_regenerate_node_names_a_helper_with_another_stripe_axis(compiled):
    # helper 4 carries 2 stripes, the others 3: refused before any product
    systems = [_system(6, 3, 4, 2, q=257, seed=s) for s in range(3)]
    _, enc, tree, *_ = systems[0]
    helpers = (1, 3, 4, 5)
    messages = []
    for h in helpers:
        payload = np.stack([system[5][h - 1].payload for system in systems], axis=1)
        share = NodeShare(h, payload[:, :2] if h == 4 else payload)
        messages.append(helper_repair_message(enc, tree, share, 2))
    plan = regenerate_plan(CodeKey(257, 6, 3, 4, 2, False), 2, helpers) if compiled else None
    with pytest.raises(ValueError, match="helper 4 .*helper 1"):
        regenerate_node(enc, tree, 2, helpers, messages, plan)


def test_regenerate_node_exhaustive_small():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=7)
    for failed in range(1, 7):
        rest = [h for h in range(1, 7) if h != failed]
        for helpers in itertools.combinations(rest, 4):
            messages = [helper_repair_message(enc, tree, shares[h - 1], failed)
                        for h in helpers]
            rebuilt = regenerate_node(enc, tree, failed, helpers, messages)
            assert rebuilt.index == failed
            assert np.array_equal(rebuilt.payload, shares[failed - 1].payload)


def test_regenerate_node_bandwidth_matches_formula():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 3, seed=9)
    beta = code_params(3, 4, 3).beta
    for h in (2, 4, 6):
        msg = helper_repair_message(enc, tree, shares[h - 1], 1)
        assert msg.total_symbols == beta
        assert len(msg.to_bytes()) == 4 + 2 * beta


def test_recover_data_validation():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2)
    with pytest.raises(ValueError):
        recover_data(enc, tree, [1, 1, 2], shares[:3])
    with pytest.raises(ValueError):
        recover_data(enc, tree, [1, 2], shares[:2])
    with pytest.raises(ValueError):
        recover_data(enc, tree, [1, 2, 3], [shares[0], shares[1], shares[3]])


@pytest.mark.parametrize("node", [0, 7], ids=["zero", "above-n"])
def test_node_outside_1_to_n_is_refused(node):
    # node 0 once indexed Psi's last row, so node 6's share under index 0
    # repaired and recovered without error; node 7 raised IndexError
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2)
    alias = NodeShare(index=node, payload=shares[5].payload)
    helpers = [node, 2, 3, 4]
    messages = [helper_repair_message(enc, tree, share, 1)
                for share in (alias, shares[1], shares[2], shares[3])]
    with pytest.raises(ValueError, match=f"node {node} out of range 1..6"):
        regenerate_node(enc, tree, 1, helpers, messages)
    with pytest.raises(ValueError, match=f"node {node} out of range 1..6"):
        recover_data(enc, tree, [node, 2, 3], [alias, shares[1], shares[2]])


def test_recover_data_every_observer_set():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=13)
    for observers in itertools.combinations(range(1, 7), 3):
        got = recover_data(enc, tree, observers, [shares[i - 1] for i in observers])
        assert list(got) == data


def test_recover_data_semi_systematic():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=17, semi=True)
    got = recover_data(enc, tree, [1, 2, 3], shares[:3])
    assert list(got) == data
    got = recover_data(enc, tree, [2, 4, 6], [shares[1], shares[3], shares[5]])
    assert list(got) == data


def test_recover_then_rebuild_any_share():
    # recovered data re-encodes to the very shares we started from
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=19)
    got = recover_data(enc, tree, [2, 3, 5], [shares[1], shares[2], shares[4]])
    sm2 = build_super_message(field, 3, 4, 2, [int(v) for v in got])
    for a, b in zip(encode(enc, sm2), shares):
        assert np.array_equal(a.payload, b.payload)


def test_extract_injection_decomposition():
    field = PrimeField(7)
    rng = random.Random(23)
    f_size = code_params(4, 6, 4).file_size
    data = [rng.randrange(7) for _ in range(f_size)]
    sm = build_super_message(field, 4, 6, 4, data)
    for spec in sm.tree.segments:
        f_mat = sm.post_matrices[spec.segment_id]
        e_mat, delta = extract_injection(field, spec, f_mat)
        assert np.array_equal((e_mat + delta) % 7, f_mat)
        if spec.is_root:
            assert not delta.any()
            continue
        assert np.array_equal(e_mat, sm.pre_matrices[spec.segment_id])
        x, b = spec.injection_pair
        from cascade_codes.combin import subsets_lex

        for c, i_set in enumerate(subsets_lex(6, spec.mode)):
            for i in range(1, 7):
                if delta[i - 1, c]:
                    assert i > max(i_set, default=0)
                    assert i not in b
                    assert not set(i_set) & set(b)


def test_repair_overlap_matches_proof_form():
    field, enc, tree, data, sm, shares = _system(6, 3, 4, 2, seed=29)
    want = overlap_dimension_formula(3, 4, 2, form="proof")
    for helper in (1, 6):
        for fa, fb in itertools.combinations(
                [x for x in range(1, 7) if x != helper], 2):
            assert repair_overlap_dim(enc, tree, helper, fa, fb) == want
    with pytest.raises(ValueError):
        repair_overlap_dim(enc, tree, 1, 1, 2)
    with pytest.raises(ValueError):
        repair_overlap_dim(enc, tree, 1, 2, 2)


def test_degenerate_k_equals_d_round_trip():
    field, enc, tree, data, sm, shares = _system(5, 3, 3, 2, seed=31)
    for failed in (1, 4):
        helpers = [h for h in range(1, 6) if h != failed][:3]
        messages = [helper_repair_message(enc, tree, shares[h - 1], failed)
                    for h in helpers]
        rebuilt = regenerate_node(enc, tree, failed, helpers, messages)
        assert np.array_equal(rebuilt.payload, shares[failed - 1].payload)
    got = recover_data(enc, tree, [2, 3, 5], [shares[1], shares[2], shares[4]])
    assert list(got) == data


def test_binary_field_round_trip():
    # the whole pipeline also runs over GF(16)
    from cascade_codes.fqlinalg import BinaryField

    field = BinaryField(4)
    enc = vandermonde_encoder(field, 6, 4)
    assert encoder_conditions_hold(enc, 3)
    tree = build_tree(3, 4, 2)
    rng = random.Random(37)
    data = [rng.randrange(16) for _ in range(code_params(3, 4, 2).file_size)]
    sm = build_super_message(field, 3, 4, 2, data)
    shares = encode(enc, sm)
    messages = [helper_repair_message(enc, tree, shares[h - 1], 2)
                for h in (1, 3, 5, 6)]
    rebuilt = regenerate_node(enc, tree, 2, (1, 3, 5, 6), messages)
    assert np.array_equal(rebuilt.payload, shares[1].payload)
    got = recover_data(enc, tree, [4, 5, 6], shares[3:])
    assert list(got) == data


POINTS = [(k, d, mu) for d in range(1, 8) for k in range(1, min(d, 5) + 1)
          for mu in range(1, k + 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POINTS), st.sampled_from([13, 257, 256]))
def test_repair_basis_splits_the_repair_encoder(point, q):
    # Lambda = Lambda[:, P] . T with T[:, P] = I and |P| = C(d-1, m-1), for
    # every segment and every failed node
    k, d, mu = point
    field = field_for_order(q)
    enc = vandermonde_encoder(field, d + 1, d)
    for failed in range(1, d + 2):
        for spec in build_tree(k, d, mu).segments:
            lam = repair_encoder(field, enc.row(failed), spec.signature, spec.mode)
            basis, t = _repair_basis(field, enc.row(failed), spec)
            pivots = [int(np.flatnonzero(row)[0]) for row in t]
            assert len(pivots) == binomial(d - 1, spec.mode - 1)
            assert pivots == sorted(set(pivots))
            assert np.array_equal(t[:, pivots], np.eye(len(pivots)))
            assert np.array_equal(basis, lam[:, pivots])
            assert np.array_equal(mat_mul(field, basis, t), lam)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(7, 3, 4, 2, False), (256, 3, 4, 2, False), (256, 3, 4, 2, True),
                        (257, 4, 5, 3, True), (16, 2, 3, 1, False)]),
       st.data())
def test_undoing_psi_h_leaves_a_helper_independent_q(case, data):
    # Psi[H,:]^-1 . messages is the same Q for every helper set H of one
    # failed node, and rebuild_payload maps that Q to the lost share
    q, k, d, mu, semi = case
    n = d + 2
    field = field_for_order(q)
    enc = vandermonde_encoder(field, n, d)
    if semi:
        enc = semi_systematize(enc, k)
    tree = build_tree(k, d, mu)
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))
    file_symbols = [rng.randrange(q) for _ in range(len(tree.layout))]
    shares = encode(enc, build_super_message(field, k, d, mu, file_symbols))
    failed = data.draw(st.integers(1, n), label="failed")
    others = [h for h in range(1, n + 1) if h != failed]
    first, second = data.draw(st.lists(st.sampled_from(list(itertools.combinations(others, d))),
                                       min_size=2, max_size=2, unique=True), label="helper sets")
    qs = []
    for helpers in (first, second):
        stacked = np.stack([np.concatenate(helper_repair_message(enc, tree, shares[h - 1],
                                                                 failed).blocks)
                            for h in helpers])
        qs.append(mat_mul(field, mat_inverse(field, enc.rows(helpers)), stacked))
    assert np.array_equal(qs[0], qs[1])
    assert np.array_equal(rebuild_payload(enc, tree, failed, qs[0]), shares[failed - 1].payload)
