"""Independent reference implementations used to freeze expected test values.

Everything in this file is deliberately written from scratch with plain
Python ints and lists (no numpy, no imports from the package under test),
so that agreement between the two is meaningful. Run the file directly to
print the frozen constants that appear in the test modules.
"""

from __future__ import annotations


def oracle_binomial(ell: int, m: int) -> int:
    """C(ell, m) via the Pascal recursion, zero outside 0 <= m <= ell."""
    if m < 0:
        return 0
    if m == 0:
        return 1
    if ell < m:
        return 0
    # Pascal triangle row by row, no math.comb
    row = [1]
    for _ in range(ell):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[m]


def oracle_subsets(d: int, m: int) -> list[tuple[int, ...]]:
    """All m-subsets of [1..d] in lexicographic order, by direct recursion."""
    if m == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], start: int) -> None:
        if len(prefix) == m:
            out.append(prefix)
            return
        for nxt in range(start, d + 1):
            extend(prefix + (nxt,), nxt + 1)

    extend((), 1)
    return out


def oracle_mat_mul(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """Schoolbook triple-loop matrix product mod p."""
    rows, inner, cols = len(a), len(b), len(b[0])
    assert all(len(r) == inner for r in a)
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc % p
    return out


def oracle_gf2_mul(a: int, b: int, s: int, poly: int) -> int:
    """Product in GF(2^s) = GF(2)[x] / poly by shift and xor: add a * x^i
    for each set bit i of b, reducing a by poly whenever x^s appears."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> s:
            a ^= poly
    return out


def oracle_rank(mat: list[list[int]], p: int) -> int:
    """Rank over GF(p) by plain row elimination on Python ints."""
    work = [[x % p for x in row] for row in mat]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if work[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(nrows):
            if r != rank and work[r][col] % p != 0:
                factor = work[r][col]
                work[r] = [(x - factor * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def oracle_t_sequence(k: int, d: int, mu: int) -> list[int]:
    """Segment counts t_0..t_mu via the child-count recursion, evaluated naively."""
    t = [0] * (mu + 1)
    t[mu] = 1
    for m in range(mu - 1, -1, -1):
        total = 0
        for j in range(m + 1, mu + 1):
            total += t[j] * (j - m - 1) * oracle_binomial(d - k + 1, j - m)
        t[m] = total
    return t


def oracle_closed_params(k: int, d: int, mu: int) -> tuple[int, int, int]:
    """(alpha, beta, file size) straight from the closed-form sums."""
    alpha = sum((d - k) ** (mu - m) * oracle_binomial(k, m) for m in range(mu + 1))
    beta = sum((d - k) ** (mu - m) * oracle_binomial(k - 1, m - 1) for m in range(mu + 1))
    fsz = sum(k * (d - k) ** (mu - m) * oracle_binomial(k, m) for m in range(mu + 1))
    fsz -= oracle_binomial(k, mu + 1)
    return alpha, beta, fsz


def oracle_p_closed(w: int, m: int) -> int:
    """Alternating closed-form sum for p_m with gap w = d - k."""
    total = 0
    for ell in range(m + 1):
        c = 1 if ell == 0 else oracle_binomial(w + ell - 1, ell)
        total += (-1) ** ell * w ** (m - ell) * c
    return total


def oracle_share_bytes(n: int, k: int, d: int, mu: int, q: int, node: int,
                       payload: list[int]) -> bytes:
    """Share file bytes written one element at a time: magic, version 1,
    n, k, d, mu, q (2B BE), node, then every element as 2B big-endian."""
    out = bytearray(b"CSCD")
    out.append(1)
    out += bytes((n, k, d, mu))
    out += q.to_bytes(2, "big")
    out.append(node)
    for value in payload:
        out += int(value).to_bytes(2, "big")
    return bytes(out)


def oracle_parse_share(data: bytes) -> tuple[dict[str, int], list[int]]:
    """Header fields and elements of well-formed share file bytes."""
    header = {"n": data[5], "k": data[6], "d": data[7], "mu": data[8],
              "q": int.from_bytes(data[9:11], "big"), "node": data[11]}
    body = data[12:]
    return header, [int.from_bytes(body[2 * t:2 * t + 2], "big")
                    for t in range(len(body) // 2)]


def oracle_message_bytes(failed: int, helper: int, blocks: list[list[int]]) -> bytes:
    """Repair message bytes written one element at a time: failed, helper,
    segment count (2B BE), then every block's elements in segment order."""
    out = bytearray((failed, helper))
    out += len(blocks).to_bytes(2, "big")
    for block in blocks:
        for value in block:
            out += int(value).to_bytes(2, "big")
    return bytes(out)


def oracle_parse_message(data: bytes, d: int,
                         modes: list[int]) -> tuple[int, int, list[list[int]]]:
    """(failed, helper, blocks) of well-formed repair message bytes; the
    receiver knows the segment modes, and a mode-m block holds C(d-1, m-1)
    elements."""
    pos = 4
    blocks = []
    for mode in modes:
        width = oracle_binomial(d - 1, mode - 1)
        blocks.append([int.from_bytes(data[pos + 2 * t:pos + 2 * t + 2], "big")
                       for t in range(width)])
        pos += 2 * width
    return data[0], data[1], blocks


def oracle_striped_message_bytes(failed: int, helper: int, modes: list[int], d: int,
                                 stripe_blocks: list[list[list[int]]]) -> bytes:
    """One repair message for several stripes, written one element at a time.

    stripe_blocks[s][t] is the block that segment t would carry in stripe
    s's own message. The header is that of one message; segment t's block
    then holds its element 0 for every stripe, then its element 1 for every
    stripe, and so on.
    """
    out = bytearray((failed, helper))
    out += len(modes).to_bytes(2, "big")
    for t, mode in enumerate(modes):
        for i in range(oracle_binomial(d - 1, mode - 1)):
            for blocks in stripe_blocks:
                out += int(blocks[t][i]).to_bytes(2, "big")
    return bytes(out)


if __name__ == "__main__":
    print("unrank(6,4,14) ->", oracle_subsets(6, 4)[14])
    print("subsets_lex(4,2) ->", oracle_subsets(4, 2))
    print("C(7,5) ->", oracle_binomial(7, 5))
    print("t_sequence(4,6,4) ->", oracle_t_sequence(4, 6, 4))
    print("t_sequence(3,4,2) ->", oracle_t_sequence(3, 4, 2))
    print("closed_params(4,6,mu) ->", [oracle_closed_params(4, 6, mu) for mu in (1, 2, 3, 4)])
    print("closed_params(6,3,4) mu 1..3 ->", [oracle_closed_params(3, 4, mu) for mu in (1, 2, 3)])
    print("p_closed(2,2) ->", oracle_p_closed(2, 2))
    print("p_closed(2,4) ->", oracle_p_closed(2, 4))
