# Storage workflows: wire formats, manifests, file-level encode/repair/recover
# on a share directory, the self-check suite, and the CLI

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cascade_codes import storlab
from cascade_codes.combin import subsets_lex
from cascade_codes.fqlinalg import BinaryField, PrimeField
from cascade_codes.params import code_params
from cascade_codes.storlab import (
    MANIFEST_KEYS,
    SHARE_MAGIC,
    bytes_to_symbols,
    default_cli_order,
    encode_file,
    field_for_order,
    main,
    read_manifest,
    read_share_file,
    recover_file,
    repair_shares,
    run_verify,
    share_filename,
    symbols_to_bytes,
    write_manifest,
    write_share_file,
)


def test_field_for_order():
    assert isinstance(field_for_order(7), PrimeField)
    assert isinstance(field_for_order(257), PrimeField)
    gf8 = field_for_order(8)
    assert isinstance(gf8, BinaryField) and gf8.q == 8
    with pytest.raises(ValueError):
        field_for_order(6)
    with pytest.raises(ValueError):
        field_for_order(1)


def test_default_cli_order():
    assert default_cli_order(6) == 257
    assert default_cli_order(257) == 257
    assert default_cli_order(258) == 263


def test_byte_symbol_round_trip():
    data = bytes(range(256))
    symbols = bytes_to_symbols(data, 257)
    assert symbols.tolist() == list(range(256))
    assert symbols_to_bytes(symbols) == data
    with pytest.raises(ValueError) as err:
        bytes_to_symbols(b"\x00\xff", 7)
    assert "257" in str(err.value)


@pytest.mark.parametrize("symbols, named", [
    (np.array([7, 3, 256, 300], dtype=np.uint16), "symbol 256 at offset 2"),
    (np.array([7, -1, 3], dtype=np.int64), "symbol -1 at offset 1"),
], ids=["above-255", "negative"])
def test_symbols_to_bytes_names_the_first_offender(symbols, named):
    with pytest.raises(ValueError, match=named):
        symbols_to_bytes(symbols)


def test_share_file_round_trip(tmp_path):
    payload = np.arange(14, dtype=np.int64) % 7
    path = tmp_path / share_filename(3)
    assert path.name == "node003.share"
    write_share_file(path, 6, 3, 4, 2, 7, 3, payload)
    header, back = read_share_file(path)
    assert (header["n"], header["k"], header["d"], header["mu"]) == (6, 3, 4, 2)
    assert header["q"] == 7 and header["node"] == 3
    assert np.array_equal(back, payload)


@pytest.mark.parametrize("header, refused", [
    ((255, 255, 255, 255, 65535, 255), None),
    ((1, 1, 1, 1, 2, 1), None),
    ((256, 3, 4, 2, 7, 1), "lie in 1..255"),
    ((6, 3, 4, 256, 7, 1), "lie in 1..255"),
    ((6, 3, 4, 2, 7, 256), "lie in 1..255"),
    ((6, 3, 4, 2, 7, 0), "lie in 1..255"),
    ((6, 3, 4, 2, 65536, 1), "fit in two bytes"),
    ((6, 3, 4, 2, 1, 1), "fit in two bytes"),
], ids=["byte-and-q-maxima", "minima", "n-256", "mu-256", "node-256", "node-0", "q-65536",
         "q-1"])
def test_share_header_bounds(tmp_path, header, refused):
    # each field is one byte in 1..255 and q two bytes in 2..65535; the
    # header rule, not the byte packing, must be what refuses
    path = tmp_path / "node.share"
    payload = np.zeros(3, dtype=np.int64)
    if refused:
        with pytest.raises(ValueError, match=refused):
            write_share_file(path, *header, payload)
        assert not path.exists()
        return
    write_share_file(path, *header, payload)
    fields, back = read_share_file(path)
    assert tuple(fields[name] for name in ("n", "k", "d", "mu", "q", "node")) == header
    assert back.tolist() == [0, 0, 0]


def test_share_file_errors(tmp_path):
    payload = np.arange(8, dtype=np.int64)
    path = tmp_path / "node001.share"
    # element 7 does not fit in GF(7)
    with pytest.raises(ValueError):
        write_share_file(path, 6, 3, 4, 2, 7, 1, payload)
    write_share_file(path, 6, 3, 4, 2, 11, 1, payload)
    raw = path.read_bytes()
    assert raw.startswith(SHARE_MAGIC)
    (tmp_path / "bad_magic.share").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        read_share_file(tmp_path / "bad_magic.share")
    (tmp_path / "bad_version.share").write_bytes(raw[:4] + b"\x09" + raw[5:])
    with pytest.raises(ValueError):
        read_share_file(tmp_path / "bad_version.share")
    (tmp_path / "short.share").write_bytes(raw[:-1])
    with pytest.raises(ValueError):
        read_share_file(tmp_path / "short.share")


def test_manifest_round_trip(tmp_path):
    entries = {
        "format": "cascade-shares", "version": 1, "n": 6, "k": 3, "d": 4,
        "mu": 2, "q": 257, "alpha": 7, "beta": 3, "file_symbols": 20,
        "stripe_count": 2, "pad_symbols": 5, "encoder": "vandermonde",
        "semi_systematic": 0,
    }
    path = tmp_path / "manifest.txt"
    write_manifest(path, entries)
    text = path.read_text()
    lines = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert lines == list(MANIFEST_KEYS)
    assert read_manifest(path) == entries
    path.write_text(text.replace("beta = 3\n", ""))
    with pytest.raises(ValueError):
        read_manifest(path)
    path.write_text(text + "surprise = 1\n")
    with pytest.raises(ValueError):
        read_manifest(path)


def test_manifest_repeated_key_is_refused(tmp_path):
    # a second semi_systematic line would otherwise select the other encoder
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(250)) * 4)
    out = tmp_path / "shares"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    with manifest.open("a") as f:
        f.write("semi_systematic = 1\n")
    (out / share_filename(2)).unlink()
    with pytest.raises(ValueError, match="repeats key 'semi_systematic'"):
        repair_shares(manifest, out, 2, [1, 3, 4, 5])
    assert not (out / share_filename(2)).exists()


def test_encode_repair_recover_files(tmp_path):
    rng = random.Random(41)
    blob = bytes(rng.randrange(256) for _ in range(1000))
    src = tmp_path / "input.bin"
    src.write_bytes(blob)
    out = tmp_path / "shares"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    entries = read_manifest(manifest)
    assert entries["file_symbols"] == 1000
    assert entries["stripe_count"] == 50
    assert entries["pad_symbols"] == 0
    for node in range(1, 7):
        header, payload = read_share_file(out / share_filename(node))
        assert payload.shape == (50 * entries["alpha"],)

    (out / share_filename(2)).unlink()
    path, moved = repair_shares(manifest, out, 2, [1, 3, 4, 5])
    assert path == out / share_filename(2)
    assert moved == 4 * entries["beta"] * 50
    restored = tmp_path / "restored.bin"
    recover_file(manifest, restored, out, nodes=[2, 4, 6])
    assert restored.read_bytes() == blob
    # default node pick also works
    recover_file(manifest, restored, out)
    assert restored.read_bytes() == blob


def test_encode_file_pads_and_empty(tmp_path):
    src = tmp_path / "small.bin"
    src.write_bytes(b"abc")
    out = tmp_path / "s1"
    manifest = encode_file(src, out, 5, 2, 3, 1, q=257)
    entries = read_manifest(manifest)
    f_size = code_params(2, 3, 1).file_size
    assert entries["stripe_count"] == 1
    assert entries["pad_symbols"] == f_size - 3
    back = tmp_path / "small_back.bin"
    recover_file(manifest, back, out, nodes=[4, 5])
    assert back.read_bytes() == b"abc"

    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    out2 = tmp_path / "s2"
    manifest2 = encode_file(empty, out2, 5, 2, 3, 1, q=257)
    assert read_manifest(manifest2)["stripe_count"] == 0
    back2 = tmp_path / "empty_back.bin"
    recover_file(manifest2, back2, out2)
    assert back2.read_bytes() == b""


def test_encode_file_parameter_errors(tmp_path):
    src = tmp_path / "x.bin"
    src.write_bytes(b"hello")
    with pytest.raises(ValueError):
        encode_file(src, tmp_path / "o1", 4, 3, 4, 2, q=257)
    with pytest.raises(ValueError):
        encode_file(src, tmp_path / "o2", 6, 3, 4, 2, q=5)


@pytest.mark.parametrize("n, q, named", [(300, None, "1..255"), (6, 65537, "two bytes")])
def test_encode_file_refuses_what_a_share_cannot_hold_before_any_work(
        tmp_path, monkeypatch, n, q, named):
    # the share header holds n, k, d, mu in one byte and q in two: encode
    # refuses before it compiles a plan or makes the share directory
    src = tmp_path / "x.bin"
    src.write_bytes(b"hello")
    monkeypatch.setattr(storlab, "code_system", None)  # any use would raise TypeError
    with pytest.raises(ValueError, match=named):
        encode_file(src, tmp_path / "wide", n, 3, 4, 2, q=q)
    assert not (tmp_path / "wide").exists()


@pytest.mark.parametrize("name, value", [
    ("format", "other"), ("version", 9), ("encoder", "cauchy"),
    ("alpha", 8), ("beta", 4), ("file_symbols", 999),
    ("stripe_count", 51), ("pad_symbols", 2), ("beta", "3x"),
    ("semi_systematic", 2),
])
def test_corrupt_manifest_field_is_named(tmp_path, name, value):
    # at (6,3,4,2) a 1000-byte file is 50 full stripes: alpha 7, beta 3
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(250)) * 4)
    out = tmp_path / "shares"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    entries = read_manifest(manifest)
    assert entries[name] != value
    write_manifest(manifest, {**entries, name: value})
    restored = tmp_path / "restored.bin"
    with pytest.raises(ValueError, match=f"manifest {name}|{name} ="):
        recover_file(manifest, restored, out)
    assert not restored.exists()
    (out / share_filename(2)).unlink()
    with pytest.raises(ValueError, match=f"manifest {name}|{name} ="):
        repair_shares(manifest, out, 2, [1, 3, 4, 5])
    assert not (out / share_filename(2)).exists()


def test_repair_rejects_foreign_share(tmp_path):
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(100))
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    # overwrite a helper with a share written under different parameters
    header, payload = read_share_file(out / share_filename(3))
    write_share_file(out / share_filename(3), 6, 3, 4, 1, 257, 3,
                     payload[:code_params(3, 4, 1).alpha * 25])
    (out / share_filename(2)).unlink()
    with pytest.raises(ValueError):
        repair_shares(manifest, out, 2, [1, 3, 4, 5])


@pytest.mark.parametrize("failed, helpers, named", [
    (2, [1, 3, 4, 7], "helper 7"), (2, [0, 1, 3, 4], "helper 0"),
    (9, [1, 3, 4, 5], "failed node 9"),
], ids=["helper-above-n", "helper-zero", "failed-above-n"])
def test_repair_rejects_node_out_of_range(tmp_path, monkeypatch, failed, helpers, named):
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(range(100)))
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    monkeypatch.setattr(storlab, "read_share_file", None)  # no share may be read
    with pytest.raises(ValueError, match=f"{named} out of range 1..6"):
        repair_shares(manifest, out, failed, helpers)


@pytest.mark.parametrize("nodes, named", [([0, 1, 2], "observer 0"), ([1, 2, 7], "observer 7")],
                         ids=["observer-zero", "observer-above-n"])
def test_recover_rejects_node_out_of_range(tmp_path, monkeypatch, nodes, named):
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(range(100)))
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    monkeypatch.setattr(storlab, "read_share_file", None)  # no share may be read
    with pytest.raises(ValueError, match=f"{named} out of range 1..6"):
        recover_file(manifest, tmp_path / "back.bin", out, nodes=nodes)
    assert not (tmp_path / "back.bin").exists()


@pytest.mark.parametrize("call, named", [
    (lambda m, out, back: repair_shares(m, out, 1, [2, 3, 5, 6]), "share of node 2 is missing"),
    (lambda m, out, back: recover_file(m, back, out, nodes=[1, 5, 6]),
     "share of node 1 is missing"),
    (lambda m, out, back: recover_file(m, back, out), r"k = 3 shares, found 2 .*nodes \[5, 6\]"),
], ids=["helper", "observer", "too-few-present"])
def test_missing_shares_are_named(tmp_path, call, named):
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(range(100)) * 3)
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    for node in range(1, 5):
        (out / share_filename(node)).unlink()
    with pytest.raises(ValueError, match=named):
        call(manifest, out, tmp_path / "back.bin")
    assert not (tmp_path / "back.bin").exists()


def test_recover_without_nodes_reads_exactly_k_present_shares(tmp_path):
    data = bytes(range(100)) * 3
    src = tmp_path / "a.bin"
    src.write_bytes(data)
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    for node in (1, 3, 4):
        (out / share_filename(node)).unlink()
    recover_file(manifest, tmp_path / "back.bin", out)
    assert (tmp_path / "back.bin").read_bytes() == data


def test_repair_of_empty_file_moves_nothing(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    lost = (out / share_filename(2)).read_bytes()
    (out / share_filename(2)).unlink()
    path, moved = repair_shares(manifest, out, 2, [1, 3, 4, 5])
    assert moved == 0 and path.read_bytes() == lost


def test_repair_rejects_message_from_another_helper(tmp_path, monkeypatch):
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(range(100)))
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    real = storlab.helper_repair_message

    def mislabelled(enc, tree, share, failed, plan=None):
        message = real(enc, tree, share, failed, plan)
        return dataclasses.replace(message, helper=6) if share.index == 4 else message

    monkeypatch.setattr(storlab, "helper_repair_message", mislabelled)
    with pytest.raises(ValueError, match="from node 6 .* helper 4"):
        repair_shares(manifest, out, 2, [1, 3, 4, 5])


@pytest.mark.parametrize("q", [256, 257])
def test_repair_rejects_symbol_outside_the_field(tmp_path, monkeypatch, q):
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(range(100)))
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=q)
    (out / share_filename(2)).unlink()
    before = sorted(p.name for p in out.iterdir())
    real = storlab.helper_repair_message

    def out_of_field(enc, tree, share, failed, plan=None):
        message = real(enc, tree, share, failed, plan)
        if share.index != 4:
            return message
        first = message.blocks[0].astype(np.int64)
        first[0, 0] = 300
        return dataclasses.replace(message, blocks=(first,) + message.blocks[1:])

    monkeypatch.setattr(storlab, "helper_repair_message", out_of_field)
    with pytest.raises(ValueError, match=f"helper 4 .* GF\\({q}\\)"):
        repair_shares(manifest, out, 2, [1, 3, 4, 5])
    assert sorted(p.name for p in out.iterdir()) == before


def test_repair_regenerates_once_through_the_compiled_plan(tmp_path, monkeypatch):
    # repair has one regenerate path: the library entry point, which checks
    # the messages, given the compiled plan
    src = tmp_path / "a.bin"
    src.write_bytes(bytes(range(256)) * 3)
    out = tmp_path / "sh"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257)
    lost = (out / share_filename(2)).read_bytes()
    (out / share_filename(2)).unlink()
    real = storlab.regenerate_node
    plans_given = []

    def counting(enc, tree, failed, helpers, messages, plan=None):
        plans_given.append(plan)
        return real(enc, tree, failed, helpers, messages, plan)

    monkeypatch.setattr(storlab, "regenerate_node", counting)
    repair_shares(manifest, out, 2, [5, 1, 4, 3])
    assert len(plans_given) == 1 and plans_given[0] is not None
    assert (out / share_filename(2)).read_bytes() == lost


@pytest.mark.parametrize("existing", [True, False])
def test_failed_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch, existing):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(100)))
    cluster = tmp_path / "cluster"
    cluster_manifest = encode_file(src, cluster, 6, 3, 4, 2)
    target = tmp_path / "target"
    target.mkdir()
    share, manifest = target / share_filename(1), target / "manifest.txt"
    recovered = target / "back.bin"
    entries = {key: 1 for key in MANIFEST_KEYS}
    if existing:
        write_share_file(share, 6, 3, 4, 2, 7, 1, np.arange(7))
        write_manifest(manifest, entries)
        recovered.write_bytes(b"an older file")
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    real = Path.write_bytes

    def half_then_fail(self, data):
        real(self, data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError):
        write_share_file(share, 6, 3, 4, 2, 7, 1, np.arange(7)[::-1])
    with pytest.raises(OSError):
        write_manifest(manifest, {**entries, "n": 2})
    with pytest.raises(OSError):
        recover_file(cluster_manifest, recovered, cluster)
    assert {p.name: p.read_bytes() for p in target.iterdir()} == before


def test_cli_module_runs_once_and_library_skips_argparse():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
    cli = subprocess.run([sys.executable, "-m", "cascade_codes.storlab", "params", "4", "6", "4"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert cli.returncode == 0 and cli.stderr == ""
    probe = ("import sys, cascade_codes\n"
             "assert 'cascade_codes.storlab' not in sys.modules\n"
             "from cascade_codes import encode_file\n"
             "assert 'argparse' not in sys.modules\n"
             "from cascade_codes import *\n"
             "assert all(name in globals() for name in cascade_codes.__all__)\n")
    lib = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    assert lib.returncode == 0, lib.stderr


def test_semi_systematic_file_round_trip(tmp_path):
    src = tmp_path / "b.bin"
    src.write_bytes(bytes(range(200)) * 2)
    out = tmp_path / "shsys"
    manifest = encode_file(src, out, 6, 3, 4, 2, q=257, semi_systematic=True)
    assert read_manifest(manifest)["semi_systematic"] == 1
    restored = tmp_path / "b_back.bin"
    recover_file(manifest, restored, out, nodes=[1, 2, 3])
    assert restored.read_bytes() == src.read_bytes()
    (out / share_filename(6)).unlink()
    _, moved = repair_shares(manifest, out, 6, [1, 2, 3, 4])
    recover_file(manifest, restored, out, nodes=[4, 5, 6])
    assert restored.read_bytes() == src.read_bytes()


def test_run_verify_passes():
    results = run_verify(3, 4, 2, 6, 7, exhaustive=True, seed=1)
    assert all(ok for _, ok, _ in results)
    names = [name for name, _, _ in results]
    assert len(names) == len(set(names))
    results = run_verify(4, 6, 2, 8, 11, exhaustive=False, seed=2)
    assert all(ok for _, ok, _ in results)
    # mu = k = d: the mode-d root has no parity groups to audit
    results = run_verify(2, 2, 2, 3, 7, exhaustive=False, seed=3)
    assert all(ok for _, ok, _ in results)
    results = run_verify(3, 3, 3, 4, 7, exhaustive=True, seed=4)
    assert all(ok for _, ok, _ in results)


def test_parity_audit_catches_one_changed_entry():
    # each entry (x, I) with x outside I closes exactly one group, I + {x},
    # with coefficient +-1, so changing it alone must fail the audit. At
    # (2, 2, 2) the tree is the mode-d root alone: nothing to change
    mutations = 0
    for k, d, mu, q in ((3, 4, 2, 7), (3, 4, 3, 16), (2, 2, 2, 7)):
        field = field_for_order(q)
        rng = random.Random(k * d * mu)
        file_symbols = [rng.randrange(q) for _ in range(code_params(k, d, mu).file_size)]
        sm = storlab.build_super_message(field, k, d, mu, file_symbols)
        assert storlab._parity_audit(field, sm)
        for spec in sm.tree.segments:
            for c, i_set in enumerate(subsets_lex(d, spec.mode)):
                for x in set(range(1, d + 1)) - set(i_set):
                    pre = [mat.copy() for mat in sm.pre_matrices]
                    pre[spec.segment_id][x - 1, c] = field.add(pre[spec.segment_id][x - 1, c], 1)
                    changed = dataclasses.replace(sm, pre_matrices=tuple(pre))
                    assert not storlab._parity_audit(field, changed), (k, d, mu, spec, i_set, x)
                    mutations += 1
    assert mutations > 0


def test_run_verify_bounds():
    with pytest.raises(ValueError):
        run_verify(3, 4, 2, 9, 11)
    with pytest.raises(ValueError):
        run_verify(3, 4, 2, 6, 5)
    with pytest.raises(ValueError):
        run_verify(3, 7, 2, 8, 11)


@pytest.mark.parametrize("exhaustive", [True, False])
def test_verify_rejects_n_not_above_d(capsys, exhaustive):
    # n = d leaves no helper set: the sweep must not pass with 0 cases
    with pytest.raises(ValueError, match="n = 4 with d = 4"):
        run_verify(3, 4, 2, 4, 7, exhaustive=exhaustive)
    argv = ["verify", "3", "4", "2", "4", "7"] + ["--exhaustive"] * exhaustive
    assert main(argv) == 2
    assert "n = 4 with d = 4" in capsys.readouterr().err


def test_cli_params(capsys):
    assert main(["params", "4", "6", "2"]) == 0
    out = capsys.readouterr().out
    assert "(k, d) = (4, 6)" in out
    row = out.strip().splitlines()[-1].split()
    assert row[:4] == ["2", "18", "5", "68"]
    assert main(["params", "4", "6", "--all-modes"]) == 0
    out = capsys.readouterr().out
    assert "81" in out and "324" in out
    # the flags column names the trade-off points: k = 4 has MBR at mu = 1,
    # the cut-set bound at mu = k - 1 and MSR at mu = k
    flags = {row.split()[0]: row.split()[6:] for row in out.strip().splitlines()[2:]}
    assert flags == {"1": ["MBR"], "2": [], "3": ["cut-set"], "4": ["MSR"]}
    assert main(["params", "4", "6", "--curve"]) == 0
    curve = capsys.readouterr().out.strip().splitlines()
    assert curve[0].split("\t")[:4] == ["mu", "alpha", "beta", "F"]
    assert len(curve) == 5
    assert curve[2].split("\t")[:4] == ["2", "18", "5", "68"]
    assert main(["params", "4", "3"]) == 2
    assert "give a mode" in capsys.readouterr().err
    assert main(["params", "4", "3", "--all-modes"]) == 2
    assert "error" in capsys.readouterr().err.lower()
    # an explicit mode cannot silently override a table of all modes
    for flag in ("--all-modes", "--curve"):
        assert main(["params", "4", "6", "2", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not both" in captured.err
    # k = 0 leaves no mode to tabulate: an error, not an empty table
    for flag in ("--all-modes", "--curve"):
        assert main(["params", "0", "5", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need 1 <= mu <= k <= d" in captured.err


def test_cli_verify(capsys):
    assert main(["verify", "3", "4", "2", "6", "7", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out.lower()
    assert main(["verify", "3", "4", "9", "6", "7"]) == 2


def test_cli_file_cycle(tmp_path, capsys):
    src = tmp_path / "doc.bin"
    src.write_bytes(bytes(range(256)))
    out = tmp_path / "doc.shares"
    assert main(["encode", str(src), "6", "3", "4", "2",
                 "--out-dir", str(out)]) == 0
    manifest = out / "manifest.txt"
    assert manifest.exists()
    (out / share_filename(4)).unlink()
    assert main(["repair", str(manifest), "--fail", "4",
                 "--helpers", "1,2,3,5"]) == 0
    assert (out / share_filename(4)).exists()
    assert main(["repair", str(manifest), "--fail", "4",
                 "--helpers", "1,1,2,3"]) == 2
    capsys.readouterr()
    dest = tmp_path / "doc_out.bin"
    assert main(["recover", str(manifest), str(dest), "--nodes", "2,4,5"]) == 0
    assert dest.read_bytes() == src.read_bytes()
