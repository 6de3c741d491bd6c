# Compiled plans against the per-stripe reference path: storlab's encode,
# repair and recover bit for bit, the plan cache keys, and the memory the
# plan path holds

import hashlib
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascade_codes import fqlinalg, plans
from cascade_codes.cascade import build_super_message, build_tree
from cascade_codes.codec import (
    NodeShare,
    RepairMessage,
    encode,
    helper_repair_message,
    recover_data,
    regenerate_node,
    split_blocks,
)
from cascade_codes.fqlinalg import BinaryField, PrimeField, field_for_order, mat_mul
from cascade_codes.params import code_params
from cascade_codes.storlab import (
    encode_file,
    read_share_file,
    recover_file,
    repair_shares,
    share_filename,
)


class Reference:
    """The per-stripe reference path on one file: the loops storlab ran
    before plans, kept here as the oracle."""

    def __init__(self, q, n, k, d, mu, semi, data: bytes):
        self.system = plans.code_system(plans.CodeKey(q, n, k, d, mu, semi))
        f_size = self.system.params.file_size
        self.stripes = -(-len(data) // f_size)
        symbols = list(data) + [0] * (self.stripes * f_size - len(data))
        self.shares = []  # per stripe, the n NodeShares
        for s in range(self.stripes):
            sm = build_super_message(self.system.field, k, d, mu,
                                     symbols[s * f_size:(s + 1) * f_size])
            self.shares.append(encode(self.system.enc, sm))

    def payload(self, node):
        return [int(v) for stripe in self.shares for v in stripe[node - 1].payload]

    def repair(self, failed, helpers):
        enc, tree = self.system.enc, self.system.tree
        out = []
        for stripe in self.shares:
            messages = [RepairMessage.from_bytes(
                helper_repair_message(enc, tree, stripe[h - 1], failed).to_bytes(), tree)
                for h in helpers]
            out.extend(int(v) for v in
                       regenerate_node(enc, tree, failed, helpers, messages).payload)
        return out

    def recover(self, observers):
        enc, tree = self.system.enc, self.system.tree
        return [int(v) for stripe in self.shares
                for v in recover_data(enc, tree, observers, [stripe[i - 1] for i in observers])]


def _payload(out: Path, node: int) -> list[int]:
    return read_share_file(out / share_filename(node))[1].tolist()


def _cycle(tmp: Path, q, n, k, d, mu, semi, data, failed, helpers, observers):
    # storlab's plan path on one file, checked against the reference
    src = tmp / "input.bin"
    src.write_bytes(data)
    out = tmp / "shares"
    manifest = encode_file(src, out, n, k, d, mu, q=q, semi_systematic=semi)
    ref = Reference(q, n, k, d, mu, semi, data)
    for node in range(1, n + 1):
        assert _payload(out, node) == ref.payload(node)

    (out / share_filename(failed)).unlink()
    _, moved = repair_shares(manifest, out, failed, helpers)
    assert moved == d * ref.system.params.beta * ref.stripes
    assert _payload(out, failed) == ref.repair(failed, helpers) == ref.payload(failed)

    back = tmp / "back.bin"
    recover_file(manifest, back, out, nodes=observers)
    assert back.read_bytes() == data
    assert ref.recover(observers)[:len(data)] == list(data)


POINTS = [(k, d, mu) for k, d in ((2, 2), (2, 3), (3, 3), (3, 4), (2, 4))
          for mu in sorted({1, k - 1, k}) if mu >= 1]


@st.composite
def cycles(draw):
    k, d, mu = draw(st.sampled_from(POINTS))
    q = draw(st.sampled_from([13, 256, 257]))
    n = d + draw(st.integers(1, 2))
    f_size = code_params(k, d, mu).file_size
    length = draw(st.sampled_from([0, 1, f_size - 1, f_size, f_size + 1, 3 * f_size + 2]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    data = bytes(rng.randrange(min(q, 256)) for _ in range(length))
    failed = draw(st.integers(1, n))
    others = [h for h in range(1, n + 1) if h != failed]
    helpers = draw(st.permutations(others))[:d]
    observers = draw(st.permutations(range(1, n + 1)))[:k]
    return q, n, k, d, mu, draw(st.booleans()), data, failed, list(helpers), list(observers)


@settings(max_examples=40, deadline=None)
@given(cycles())
def test_plan_path_matches_reference(case):
    with tempfile.TemporaryDirectory() as tmp:
        _cycle(Path(tmp), *case)


def test_cache_keys_keep_field_order_and_encoder_apart(tmp_path):
    # one process, several keys that differ in one component each: a key
    # that dropped q, the helper or observer set, or semi_systematic
    # would hand a later call a plan compiled for an earlier one
    data = bytes(random.Random(3).randrange(256) for _ in range(150))
    runs = [(256, False, [2, 3, 4, 5], [1, 5, 6]),
            (257, False, [2, 3, 4, 5], [1, 5, 6]),
            (257, False, [5, 3, 2, 4], [6, 1, 5]),
            (257, False, [6, 5, 4, 3], [3, 4, 2]),
            (257, True, [6, 5, 4, 3], [3, 4, 2])]
    for i, (q, semi, helpers, observers) in enumerate(runs):
        run = tmp_path / f"run{i}"
        run.mkdir()
        _cycle(run, q, 6, 3, 4, 2, semi, data, 1, helpers, observers)


def test_node_order_changes_neither_result_nor_plan(tmp_path):
    # a helper's message depends only on itself and the failed node, and
    # recovery only on which k nodes answer: listing the same nodes in
    # another order gives the same bytes from the same compiled plan
    data = bytes(random.Random(6).randrange(256) for _ in range(700))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out = tmp_path / "shares"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    lost = (out / share_filename(2)).read_bytes()
    plans.regenerate_plan.cache_clear()
    repaired = []
    for helpers in ([5, 4, 3, 1], [1, 3, 4, 5]):
        (out / share_filename(2)).unlink()
        repair_shares(manifest, out, 2, helpers)
        repaired.append((out / share_filename(2)).read_bytes())
    assert repaired == [lost, lost]
    assert plans.regenerate_plan.cache_info().misses == 1

    plans.recover_plan.cache_clear()
    recovered = []
    for i, observers in enumerate(([6, 2, 4], [2, 4, 6], [4, 6, 2])):
        back = tmp_path / f"back{i}.bin"
        recover_file(manifest, back, out, nodes=observers)
        recovered.append(back.read_bytes())
    assert recovered == [data] * 3
    assert plans.recover_plan.cache_info().misses == 1


def test_every_failed_node_repairs(tmp_path):
    # each round deletes its shares together, then regenerates them in turn
    # from d live nodes only: first every node alone, then n - d = 3 nodes
    # down at once, where the later repairs lean on the earlier ones. The
    # file then recovers from repaired nodes alone
    data = bytes(range(200))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    for case, rounds in enumerate(([[f] for f in range(1, 8)], [[7, 5, 1]])):
        out = tmp_path / f"shares{case}"
        manifest = encode_file(src, out, 7, 3, 4, 3, q=257)
        for lost_nodes in rounds:
            lost = {f: (out / share_filename(f)).read_bytes() for f in lost_nodes}
            for failed in lost_nodes:
                (out / share_filename(failed)).unlink()
            for failed in lost_nodes:
                live = [h for h in range(7, 0, -1) if (out / share_filename(h)).exists()]
                repair_shares(manifest, out, failed, live[:4])
                assert (out / share_filename(failed)).read_bytes() == lost[failed]
        back = tmp_path / "back.bin"
        recover_file(manifest, back, out, nodes=[1, 5, 7])
        assert back.read_bytes() == data


def test_a_cold_encode_compile_builds_the_tree_once():
    # the tree is a value of (k, d, mu): code_system builds it and every
    # compile pass's super-message reuses it
    key = plans.CodeKey(257, 8, 4, 6, 4, False)
    for fn in (build_tree, plans.code_system, plans.encode_plan):
        fn.cache_clear()
    plans.encode_plan(key)
    assert build_tree.cache_info().misses == 1


def test_plans_are_narrow_and_read_only():
    for q, dtype in ((13, np.uint8), (256, np.uint8), (257, np.uint16)):
        key = plans.CodeKey(q, 6, 3, 4, 2, False)
        compiled = (plans.encode_plan(key), plans.helper_plan(key, 2),
                    plans.regenerate_plan(key, 2, (1, 3, 4, 5)),
                    plans.recover_plan(key, (1, 2, 3)))
        p = code_params(3, 4, 2)
        assert [c.shape for c in compiled] == [
            (p.file_size, 6 * p.alpha), (p.alpha, p.beta), (4 * p.beta, p.alpha),
            (3 * p.alpha, p.file_size)]
        for plan in compiled:
            assert plan.coef.dtype == plan.dense().dtype == dtype
            for array in (plan.coef, plan.dense(), plan.idx):
                assert array is None or not array.flags.writeable


def test_helper_plan_matches_reference_message():
    key = plans.CodeKey(257, 8, 4, 6, 2, False)
    system = plans.code_system(key)
    rows = np.random.default_rng(5).integers(0, 257, size=(system.params.alpha, 9))
    share = NodeShare(index=3, payload=rows)
    batched = helper_repair_message(system.enc, system.tree, share, 7,
                                    plans.helper_plan(key, 7))
    reference = helper_repair_message(system.enc, system.tree, share, 7)
    assert batched.total_symbols == reference.total_symbols == 9 * system.params.beta
    for a, b in zip(batched.blocks, reference.blocks):
        assert np.array_equal(a, b)


def _messages(system, failed, helpers, symbols):
    # rows j * beta .. (j + 1) * beta of the symbols are helper j's message
    beta = system.params.beta
    return [RepairMessage(failed, h, system.tree.modes,
                          split_blocks(symbols[j * beta:(j + 1) * beta], system.tree.widths))
            for j, h in enumerate(helpers)]


@st.composite
def regenerations(draw):
    k, d, mu = draw(st.sampled_from(POINTS))
    key = plans.CodeKey(draw(st.sampled_from([13, 256, 257])), d + draw(st.integers(1, 2)),
                        k, d, mu, draw(st.booleans()))
    failed = draw(st.integers(1, key.n))
    helpers = draw(st.permutations([h for h in range(1, key.n + 1) if h != failed]))[:d]
    stripes = draw(st.sampled_from([None, 0, 1, 3]))
    shape = (d * code_params(k, d, mu).beta,) + (() if stripes is None else (stripes,))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    return key, failed, tuple(helpers), rng.integers(0, key.q, size=shape)


@settings(max_examples=60, deadline=None)
@given(regenerations())
def test_regenerate_plan_branch_matches_reference(case):
    # the map is linear, so any in-field messages check it, not only real ones
    key, failed, helpers, symbols = case
    system = plans.code_system(key)
    messages = _messages(system, failed, helpers, symbols)
    reference = regenerate_node(system.enc, system.tree, failed, helpers, messages)
    compiled = regenerate_node(system.enc, system.tree, failed, helpers, messages,
                               plans.regenerate_plan(key, failed, helpers))
    assert compiled.payload.shape == reference.payload.shape
    assert np.array_equal(compiled.payload, reference.payload)


@pytest.mark.parametrize("q", [256, 257])
@pytest.mark.parametrize("compiled", [False, True], ids=["reference", "plan"])
def test_regenerate_node_rejects_symbol_outside_the_field(q, compiled):
    # 300 once indexed past GF(2^8)'s tables, and at q = 257 gave a wrong share
    key = plans.CodeKey(q, 6, 3, 4, 2, False)
    system = plans.code_system(key)
    helpers = (1, 3, 4, 5)
    symbols = np.random.default_rng(3).integers(0, q, size=(4 * system.params.beta, 3))
    symbols[2 * system.params.beta + 1, 2] = 300
    plan = plans.regenerate_plan(key, 2, helpers) if compiled else None
    with pytest.raises(ValueError, match=f"helper 4 holds a symbol outside GF\\({q}\\)"):
        regenerate_node(system.enc, system.tree, 2, helpers,
                        _messages(system, 2, helpers, symbols), plan)


def _ellpack(matrix):
    # the gather form of a matrix, built column by column: slot s of column c
    # holds the column's s-th nonzero row, and unused slots hold row 0 with
    # coefficient 0
    nonzero = [np.flatnonzero(matrix[:, c]) for c in range(matrix.shape[1])]
    idx = np.zeros((max(map(len, nonzero), default=0), matrix.shape[1]), dtype=np.intp)
    coef = np.zeros(idx.shape, dtype=matrix.dtype)
    for c, rows in enumerate(nonzero):
        idx[:len(rows), c] = rows
        coef[:len(rows), c] = matrix[rows, c]
    return idx, coef


@st.composite
def linear_maps(draw):
    # a map and the rows to apply it to: empty maps, all-zero columns, 0
    # and 1 stripes, uint8 and uint16 rows, and maps whose every entry and
    # input is q - 1, the largest sum the gather accumulates
    field = field_for_order(draw(st.sampled_from([13, 257, 16, 256])))
    inputs, outputs = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    stripes = draw(st.sampled_from([0, 1, 2, 9, 300]))
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        matrix = np.full((inputs, outputs), field.q - 1)
        rows = np.full((stripes, inputs), min(field.q, np.iinfo(dtype).max + 1) - 1)
    else:
        matrix = rng.integers(0, field.q, size=(inputs, outputs))
        matrix[rng.random(matrix.shape) < draw(st.floats(0, 1))] = 0
        if outputs:
            matrix[:, draw(st.integers(0, outputs - 1))] = 0
        rows = rng.integers(0, min(field.q, np.iinfo(dtype).max + 1), size=(stripes, inputs))
    return field, matrix.astype(field.dtype), rows.astype(dtype)


@settings(max_examples=150, deadline=None)
@given(linear_maps())
def test_each_form_applies_like_mat_mul(case):
    field, matrix, rows = case
    want = mat_mul(field, rows, matrix)
    idx, coef = _ellpack(matrix)
    forms = [plans.LinearMap(field, matrix.shape, matrix),
             plans.LinearMap(field, matrix.shape, coef, idx),
             plans.linear_map(field, matrix.copy())]
    for form in forms:
        got = form.apply(rows)
        assert got.dtype == field.dtype and np.array_equal(got, want)
        assert np.array_equal(form.dense(), matrix)
        if rows.shape[0] == 1:  # one stripe may also come without its axis
            assert np.array_equal(form.apply(rows[0]), want[0])


@pytest.mark.parametrize("q", [257, 256])
def test_gather_chunks_join_up(q, monkeypatch):
    # the bulk encode map is a gather; at stripe counts one either side of
    # its chunk, and one past two chunks, it must equal the dense product
    steps = []
    chunks = fqlinalg._chunks

    def spy(rows, out, elem_bytes):
        blocks = list(chunks(rows, out, elem_bytes))
        steps.append(len(blocks[0][0]))
        return blocks

    monkeypatch.setattr(fqlinalg, "_chunks", spy)
    key = plans.CodeKey(q, 8, 4, 6, 4, False)
    encode_map = plans.encode_plan(key)
    # a gather, and the cache holds no dense copy beside it
    assert encode_map.idx is not None
    assert encode_map.nbytes == encode_map.idx.nbytes + encode_map.coef.nbytes
    assert encode_map.nbytes < encode_map.dense().nbytes / 2
    rng = np.random.default_rng(q)
    encode_map.apply(np.zeros((500, 324), dtype=np.uint8))
    step = steps[-1]
    assert 1 < step < 500
    for stripes in (step - 1, step, step + 1, 2 * step + 1):
        rows = rng.integers(0, 256, size=(stripes, 324)).astype(np.uint8)
        want = mat_mul(encode_map.field, rows, encode_map.dense())
        assert np.array_equal(encode_map.apply(rows), want)


@pytest.mark.parametrize("width", [(1 << 16) - 1, 1 << 16])
def test_prime_gather_sums_exactly_at_the_accumulator_edge(width):
    # at q = 257 a column sums width * 256^2, which fits uint32 for width
    # 2^16 - 1 and needs uint64 from 2^16; each term is (-1)^2 = 1 mod 257
    idx = np.arange(width).reshape(width, 1)
    coef = np.full((width, 1), 256, dtype=np.uint16)
    rows = np.full((2, width), 256, dtype=np.uint16)
    got = plans.LinearMap(PrimeField(257), (width, 1), coef, idx).apply(rows)
    assert got.tolist() == [[width % 257]] * 2


def test_binary_mat_mul_memory_is_output_sized():
    field = BinaryField(8)
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(410, 20))
    b = rng.integers(0, 256, size=(20, 42))
    tracemalloc.start()
    try:
        product = mat_mul(field, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * (410 * 42 * 8)
    want = np.zeros((410, 42), dtype=np.int64)
    for t in range(20):
        want ^= field.mul(a[:, t:t + 1], b[t:t + 1, :])
    assert np.array_equal(product, want)


# traced bytes of one encode -> repair -> recover of an 8 KiB file at
# (6,3,4,2) over GF(2^8), plan compiles included: measured at 0.35 MiB,
# where the per-stripe loops the plans replaced peaked at 0.69 MiB
FILE_CYCLE_BUDGET = 512 * 1024


def test_file_cycle_memory_is_bounded(tmp_path):
    data = bytes(random.Random(8).randrange(256) for _ in range(8 * 1024))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out = tmp_path / "shares"
    for fn in (plans.encode_plan, plans.helper_plan, plans.regenerate_plan,
               plans.recover_plan):
        fn.cache_clear()
    tracemalloc.start()
    try:
        manifest = encode_file(src, out, 6, 3, 4, 2, q=256)
        (out / share_filename(4)).unlink()
        repair_shares(manifest, out, 4, [6, 2, 1, 5])
        recover_file(manifest, tmp_path / "back.bin", out, nodes=[4, 1, 3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "back.bin").read_bytes() == data
    assert peak < FILE_CYCLE_BUDGET


# traced peak of each warm op, plans compiled, on a 36 KiB file at
# (8,4,6,4), q = 257. With the dense encode map the peaks were: encode
# 723.2 KiB, repair 761.5 KiB, recover 652.1 KiB. The gather encode map
# peaks near 406 KiB; repair and recover may not exceed the dense peaks
WARM_OP_BUDGETS = {"encode": 512 * 1024, "repair": 762 * 1024, "recover": 653 * 1024}


def test_warm_bulk_op_memory_is_bounded(tmp_path):
    data = bytes(random.Random(9).randrange(256) for _ in range(36 * 1024))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    out = tmp_path / "shares"
    ops = {"encode": lambda: encode_file(src, out, 8, 4, 6, 4, q=257),
           "repair": lambda: ((out / share_filename(3)).unlink(),
                              repair_shares(out / "manifest.txt", out, 3, [1, 2, 4, 5, 6, 7])),
           "recover": lambda: recover_file(out / "manifest.txt", tmp_path / "back.bin", out,
                                           nodes=[3, 5, 6, 8])}
    for op in ops.values():
        op()
    peaks = {}
    for name, op in ops.items():
        tracemalloc.start()
        try:
            op()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "back.bin").read_bytes() == data
    over = {name: peak for name, peak in peaks.items() if peak > WARM_OP_BUDGETS[name]}
    assert not over, over


# SHA-256 of the compiled plans at each key (see _plan_digest). Each plan is
# the whole linear map of one operation, so while a digest holds, no share,
# message or recovered byte at that key has changed: a rewrite of the field,
# segment or tree code must leave every digest as it is
GOLDEN_PLAN_DIGESTS = {
    # (q, n, k, d, mu, semi_systematic): cut-set, prime and GF(2^8)
    # semi-systematic, MSR, MBR, mu = k = d, GF(16), a small MBR, GF(8) MSR
    (257, 6, 3, 4, 2, False): "27f1a25584dce37ea954a30fd051e7dc11fc884bc65f7724743dda01c78b3eeb",
    (256, 6, 3, 4, 2, True): "9b0b3320afed41b12b0e8d6c68faaade31b1aa95381e0c298a6e07001eaf2c27",
    (257, 8, 4, 6, 4, False): "30cd8190d3e4565689bfbdb5f02f87126df8b0e348eff3246e277a3a9745497d",
    (257, 8, 4, 6, 1, False): "7af241009a0c87c0f6de0d15112407767c18110326220e5956e875e7b5eeb404",
    (7, 3, 2, 2, 2, False): "65117ca98dbd211baac7985c1e2fe8a6e0f02daea3db108fbb8f58116edb5f74",
    (16, 6, 3, 4, 2, False): "e94d22aabe6dba1d3a1aebc58481e0b5a74a9793fb003c7adc24f83e7f76b183",
    (13, 5, 2, 3, 1, False): "e2721b9d1833ad51a7a40aec418d89613ab85cdd2e7e88e4e1afd03fad8f44df",
    (8, 5, 3, 4, 3, False): "47d46720723117c16e6cb31b03592500cd37a75cbb4f784e8253932a3059c7eb",
}


def _plan_digest(key: plans.CodeKey) -> str:
    # the encode plan, the helper plan toward every node, then regenerate and
    # recover plans for the lowest and the highest node sets
    n, k, d = key.n, key.k, key.d
    compiled = [plans.encode_plan(key)]
    compiled += [plans.helper_plan(key, failed) for failed in range(1, n + 1)]
    compiled += [plans.regenerate_plan(key, 1, tuple(range(2, d + 2))),
                 plans.regenerate_plan(key, n, tuple(range(1, d + 1))),
                 plans.recover_plan(key, tuple(range(1, k + 1))),
                 plans.recover_plan(key, tuple(range(n - k + 1, n + 1)))]
    h = hashlib.sha256()
    for plan in (linear.dense() for linear in compiled):
        h.update(f"{plan.shape} {plan.dtype.str};".encode())
        h.update(plan.tobytes())
    return h.hexdigest()


def test_plans_match_golden_digests():
    got = {key: _plan_digest(plans.CodeKey(*key)) for key in GOLDEN_PLAN_DIGESTS}
    assert got == GOLDEN_PLAN_DIGESTS
