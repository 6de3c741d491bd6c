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

from cascade_codes import plans
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
from cascade_codes.fqlinalg import BinaryField, mat_mul
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
            assert plan.dtype == dtype and not plan.flags.writeable


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
    for plan in compiled:
        h.update(f"{plan.shape} {plan.dtype.str};".encode())
        h.update(plan.tobytes())
    return h.hexdigest()


def test_plans_match_golden_digests():
    got = {key: _plan_digest(plans.CodeKey(*key)) for key in GOLDEN_PLAN_DIGESTS}
    assert got == GOLDEN_PLAN_DIGESTS
