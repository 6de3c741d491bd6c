# Share files and repair messages: the vectorized writers and readers
# against the per-element oracles, byte for byte, and their ValueErrors

import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_codes.cascade import build_tree
from cascade_codes.codec import RepairMessage
from cascade_codes.storlab import read_share_file, write_share_file

from oracles import (
    oracle_binomial,
    oracle_message_bytes,
    oracle_parse_message,
    oracle_parse_share,
    oracle_share_bytes,
    oracle_striped_message_bytes,
)


@st.composite
def shares(draw):
    q = draw(st.sampled_from([7, 13, 256, 257, 65521]))
    payload = draw(st.lists(st.integers(0, q - 1), max_size=120))
    node = draw(st.integers(1, 255))
    return q, node, payload


@settings(max_examples=60, deadline=None)
@given(shares())
def test_share_file_matches_oracle(case):
    q, node, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "node.share"
        write_share_file(path, 9, 3, 5, 2, q, node, np.array(payload, dtype=np.int64))
        raw = path.read_bytes()
        assert raw == oracle_share_bytes(9, 3, 5, 2, q, node, payload)
        header, back = read_share_file(path)
    want_header, want = oracle_parse_share(raw)
    assert header == want_header
    assert back.dtype == np.int64 and back.tolist() == want


def test_share_file_errors_name_the_fault(tmp_path):
    good = oracle_share_bytes(6, 3, 4, 2, 11, 1, [1, 2, 10])
    cases = {
        "magic": b"XXXX" + good[4:],
        "version": good[:4] + b"\x02" + good[5:],
        "header": good[:11],
        "odd": good[:-1],
        "field": oracle_share_bytes(6, 3, 4, 2, 11, 1, [1, 11]),
    }
    for name, raw in cases.items():
        path = tmp_path / f"{name}.share"
        path.write_bytes(raw)
        with pytest.raises(ValueError):
            read_share_file(path)
    with pytest.raises(ValueError):
        write_share_file(tmp_path / "neg.share", 6, 3, 4, 2, 11, 1, np.array([-1]))


@st.composite
def trees(draw):
    k = draw(st.integers(1, 5))
    d = draw(st.integers(k, 7))
    return build_tree(k, d, draw(st.integers(1, k)))


def _widths(tree):
    # block lengths from the oracle, not from the tree's own widths
    return [oracle_binomial(tree.d - 1, m - 1) for m in tree.modes]


@st.composite
def messages(draw):
    tree = draw(trees())
    rng = random.Random(draw(st.integers(0, 2**32)))
    blocks = [[rng.randrange(1 << 16) for _ in range(w)] for w in _widths(tree)]
    return tree, draw(st.integers(0, 255)), draw(st.integers(0, 255)), blocks


@settings(max_examples=80, deadline=None)
@given(messages())
def test_repair_message_matches_oracle(case):
    tree, failed, helper, blocks = case
    msg = RepairMessage(failed=failed, helper=helper, modes=tree.modes,
                        blocks=tuple(np.array(b, dtype=np.int64) for b in blocks))
    wire = msg.to_bytes()
    assert wire == oracle_message_bytes(failed, helper, blocks)
    beta = sum(len(b) for b in blocks)
    assert len(wire) == 4 + 2 * beta
    back = RepairMessage.from_bytes(wire, tree)
    assert back.modes == tree.modes
    assert (back.failed, back.helper, [b.tolist() for b in back.blocks]) == \
        oracle_parse_message(wire, tree.d, list(tree.modes))
    assert back.total_symbols == beta


def test_repair_message_errors():
    # (6,3,4,2) has two segments, of modes 2 and 0: beta = 3
    tree = build_tree(3, 4, 2)
    wire = oracle_message_bytes(1, 2, [[5, 6, 7], []])
    assert RepairMessage.from_bytes(wire, tree).total_symbols == 3
    miscount = wire[:2] + (3).to_bytes(2, "big") + wire[4:]
    # messages of (6,3,4,1), one segment, and of (6,3,4,3), two of other widths
    other_mu = [oracle_message_bytes(1, 2, [[0] * w for w in _widths(build_tree(3, 4, mu))])
                for mu in (1, 3)]
    for bad in (wire[:-1], wire + b"\x00", wire[:3], miscount, *other_mu):
        with pytest.raises(ValueError, match=r"from helper 2\b"):
            RepairMessage.from_bytes(bad, tree)
    with pytest.raises(ValueError, match=r"from helper 2\b"):
        RepairMessage.from_bytes(wire, tree, -1)
    with pytest.raises(ValueError, match="header"):  # one byte carries no helper
        RepairMessage.from_bytes(wire[:1], tree)
    for value in (-1, 1 << 16):
        msg = RepairMessage(failed=1, helper=2, modes=(1,), blocks=(np.array([value]),))
        with pytest.raises(ValueError, match=r"from helper 2\b"):
            msg.to_bytes()


@st.composite
def striped_messages(draw):
    tree = draw(trees())
    stripes = draw(st.sampled_from([0, 1, 2, 37]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    stripe_blocks = [[[rng.randrange(1 << 16) for _ in range(w)] for w in _widths(tree)]
                     for _ in range(stripes)]
    return tree, draw(st.integers(0, 255)), draw(st.integers(0, 255)), stripe_blocks


def _striped(tree, failed, helper, stripe_blocks):
    # one message carrying every stripe, as (width, stripes) blocks
    blocks = tuple(np.array([blocks[t] for blocks in stripe_blocks], dtype=np.int64)
                   .reshape(len(stripe_blocks), w).T for t, w in enumerate(_widths(tree)))
    return RepairMessage(failed=failed, helper=helper, modes=tree.modes, blocks=blocks)


@settings(max_examples=60, deadline=None)
@given(striped_messages())
def test_striped_repair_message_matches_oracle(case):
    tree, failed, helper, stripe_blocks = case
    stripes = len(stripe_blocks)
    modes = list(tree.modes)
    wire = _striped(tree, failed, helper, stripe_blocks).to_bytes()
    assert wire == oracle_striped_message_bytes(failed, helper, modes, tree.d, stripe_blocks)
    widths = _widths(tree)
    assert len(wire) == 4 + 2 * sum(widths) * stripes
    back = RepairMessage.from_bytes(wire, tree, stripes)
    assert (back.failed, back.helper, back.modes) == (failed, helper, tree.modes)
    assert [b.shape for b in back.blocks] == [(w, stripes) for w in widths]
    for t, block in enumerate(back.blocks):
        assert block.T.tolist() == [blocks[t] for blocks in stripe_blocks]
    assert back.total_symbols == stripes * sum(widths)
    if stripes == 1:  # one stripe is the unstriped format, byte for byte
        assert wire == oracle_message_bytes(failed, helper, stripe_blocks[0])
        assert [b.tolist() for b in RepairMessage.from_bytes(wire, tree).blocks] == \
            stripe_blocks[0]


def test_striped_repair_message_errors():
    tree = build_tree(3, 4, 2)
    msg = _striped(tree, 1, 2, [[[5, 6, 7], []], [[1, 2, 3], []]])
    wire = msg.to_bytes()
    assert RepairMessage.from_bytes(wire, tree, 2).total_symbols == 6
    for bad, stripes in ((wire[:-1], 2), (wire + b"\x00", 2), (wire, 1), (wire, 3),
                         (wire, -1), (wire, 0), (wire, None)):
        with pytest.raises(ValueError, match=r"from helper 2\b"):
            RepairMessage.from_bytes(bad, tree, stripes)
    big = RepairMessage(failed=1, helper=2, modes=(2, 0),
                        blocks=(np.array([[3, 1 << 16]] * 3, dtype=np.int64),
                                np.zeros((0, 2), dtype=np.int64)))
    with pytest.raises(ValueError, match=r"from helper 2\b"):
        big.to_bytes()
