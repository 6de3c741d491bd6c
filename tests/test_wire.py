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
def messages(draw):
    d = draw(st.integers(1, 7))
    modes = draw(st.lists(st.integers(0, d), max_size=8))
    blocks = [draw(st.lists(st.integers(0, 0xFFFF), min_size=w, max_size=w))
              for w in (oracle_binomial(d - 1, m - 1) for m in modes)]
    return d, draw(st.integers(0, 255)), draw(st.integers(0, 255)), modes, blocks


@settings(max_examples=80, deadline=None)
@given(messages())
def test_repair_message_matches_oracle(case):
    d, failed, helper, modes, blocks = case
    msg = RepairMessage(failed=failed, helper=helper, modes=tuple(modes),
                        blocks=tuple(np.array(b, dtype=np.int64) for b in blocks))
    wire = msg.to_bytes()
    assert wire == oracle_message_bytes(failed, helper, modes, blocks)
    back = RepairMessage.from_bytes(wire, d)
    assert (back.failed, back.helper, list(back.modes),
            [b.tolist() for b in back.blocks]) == oracle_parse_message(wire, d)
    assert back.total_symbols == sum(len(b) for b in blocks)


def test_repair_message_errors():
    wire = oracle_message_bytes(1, 2, [2, 0, 1], [[5, 6, 7], [], [9]])
    assert RepairMessage.from_bytes(wire, 4).total_symbols == 4
    for bad in (wire[:3], wire[:4 + 1 + 3], wire[:-1], wire + b"\x00",
                wire[:2] + (4).to_bytes(2, "big") + wire[4:]):
        with pytest.raises(ValueError):
            RepairMessage.from_bytes(bad, 4)
    for value in (-1, 1 << 16):
        msg = RepairMessage(failed=1, helper=2, modes=(1,), blocks=(np.array([value]),))
        with pytest.raises(ValueError):
            msg.to_bytes()


@st.composite
def striped_messages(draw):
    k = draw(st.integers(1, 5))
    d = draw(st.integers(k, 7))
    mu = draw(st.integers(1, k))
    modes = [spec.mode for spec in build_tree(k, d, mu).segments]
    stripes = draw(st.sampled_from([0, 1, 2, 37]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    widths = [oracle_binomial(d - 1, m - 1) for m in modes]
    stripe_blocks = [[[rng.randrange(1 << 16) for _ in range(w)] for w in widths]
                     for _ in range(stripes)]
    return d, draw(st.integers(0, 255)), draw(st.integers(0, 255)), modes, stripe_blocks


def _striped(failed, helper, modes, d, stripe_blocks):
    # one message carrying every stripe, as (width, stripes) blocks
    widths = [oracle_binomial(d - 1, m - 1) for m in modes]
    blocks = tuple(np.array([blocks[t] for blocks in stripe_blocks], dtype=np.int64)
                   .reshape(len(stripe_blocks), w).T for t, w in enumerate(widths))
    return RepairMessage(failed=failed, helper=helper, modes=tuple(modes), blocks=blocks)


@settings(max_examples=60, deadline=None)
@given(striped_messages())
def test_striped_repair_message_matches_oracle(case):
    d, failed, helper, modes, stripe_blocks = case
    stripes = len(stripe_blocks)
    wire = _striped(failed, helper, modes, d, stripe_blocks).to_bytes()
    assert wire == oracle_striped_message_bytes(failed, helper, modes, d, stripe_blocks)
    back = RepairMessage.from_bytes(wire, d, stripes)
    assert (back.failed, back.helper, list(back.modes)) == (failed, helper, modes)
    widths = [oracle_binomial(d - 1, m - 1) for m in modes]
    assert [b.shape for b in back.blocks] == [(w, stripes) for w in widths]
    for t, block in enumerate(back.blocks):
        assert block.T.tolist() == [blocks[t] for blocks in stripe_blocks]
    assert back.total_symbols == stripes * sum(widths)
    if stripes == 1:  # one stripe is the per-stripe format, byte for byte
        assert wire == oracle_message_bytes(failed, helper, modes, stripe_blocks[0])
        assert [b.tolist() for b in RepairMessage.from_bytes(wire, d).blocks] == \
            stripe_blocks[0]


def test_striped_repair_message_errors():
    stripe_blocks = [[[5, 6, 7], [], [9]], [[1, 2, 3], [], [4]]]
    msg = _striped(1, 2, [2, 0, 1], 4, stripe_blocks)
    wire = msg.to_bytes()
    assert RepairMessage.from_bytes(wire, 4, 2).total_symbols == 8
    for bad, stripes in ((wire[:-1], 2), (wire + b"\x00", 2), (wire, 1), (wire, 3),
                         (wire, -1), (wire, 0)):
        with pytest.raises(ValueError):
            RepairMessage.from_bytes(bad, 4, stripes)
    with pytest.raises(ValueError):
        RepairMessage.from_bytes(wire, 4)
    big = RepairMessage(failed=1, helper=2, modes=(1,),
                        blocks=(np.array([[3, 1 << 16]], dtype=np.int64),))
    with pytest.raises(ValueError):
        big.to_bytes()
