"""Workload definitions and seeded input generation for the benchmark.

Nothing here imports cascade_codes: the harness process generates inputs and
schedules, and only the worker processes load the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

KIB = 1024

# Cycles generated per run, a multiple of every workload's round length; a run
# stops earlier when its time is up, and wraps around if the program ever gets
# fast enough to exhaust them.
MAX_CYCLES = 120


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    d: int
    mu: int
    q: int | None  # None: the CLI's default field order
    via_cli: bool


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w for w in (
        Workload("bulk-msr-p257", 8, 4, 6, 4, 257, False),
        Workload("churn-cutset-gf256", 6, 3, 4, 2, 256, False),
        Workload("cli-mbr-cold", 8, 4, 6, 1, None, True),
    )
}


def _stratified_sizes(rng: random.Random, rounds: int, per_round: int, lo: int,
                      hi: int) -> list[int]:
    # log-uniform sizes, stratified per round: every round holds one size from
    # each of its equal-width strata (of log size), in a seeded order, so a run
    # of whole rounds sees the same mix of small and large files whatever the
    # seed; the seed moves each size within the middle quarter of its stratum
    sizes = []
    for _ in range(rounds):
        strata = rng.sample(range(per_round), per_round)
        sizes.extend(round(lo * (hi / lo) ** ((i + 0.375 + 0.25 * rng.random()) / per_round))
                     for i in strata)
    return sizes


def _failure_order(rng: random.Random, w: Workload, count: int) -> list[int]:
    # every node fails once per round of n cycles, in a fresh seeded order per
    # round; node 1's encoder row (1, 0, ..., 0) makes its repair about 40%
    # cheaper, so an unbalanced draw would let the seed move the result
    order: list[int] = []
    while len(order) < count:
        order.extend(rng.sample(range(1, w.n + 1), w.n))
    return order[:count]


def _random_pattern(rng: random.Random, w: Workload, failed: int):
    others = [h for h in range(1, w.n + 1) if h != failed]
    helpers = sorted(rng.sample(others, w.d))
    observers = sorted([failed] + rng.sample(others, w.k - 1))
    return failed, helpers, observers


def _churn_patterns(rng: random.Random, w: Workload, count: int):
    # every (failed, helpers) pair once before any repeats: each round of n
    # cycles fails every node once, with that node's helper sets in seeded
    # order; observer sets are matched to cycles in blocks that use each k-set
    # once, each set containing its cycle's failed node
    helper_sets = {f: [list(hs) for hs in itertools.combinations(
        [h for h in range(1, w.n + 1) if h != f], w.d)] for f in range(1, w.n + 1)}
    order: list[tuple[int, list[int]]] = []
    while len(order) < count:
        for sets in helper_sets.values():
            rng.shuffle(sets)
        for r in range(len(helper_sets[1])):
            order.extend((f, helper_sets[f][r]) for f in rng.sample(range(1, w.n + 1), w.n))
    order = order[:count]

    observer_sets = [list(s) for s in itertools.combinations(range(1, w.n + 1), w.k)]
    observers: list[list[int]] = [[] for _ in range(count)]
    for start in range(0, count, len(observer_sets)):
        cycles = list(range(start, min(start + len(observer_sets), count)))
        sets = list(range(len(observer_sets)))
        rng.shuffle(sets)
        owner: dict[int, int] = {}

        def assign(c: int, seen: set[int]) -> bool:
            for s in sets:
                if order[c][0] in observer_sets[s] and s not in seen:
                    seen.add(s)
                    if s not in owner or assign(owner[s], seen):
                        owner[s] = c
                        return True
            return False

        for c in cycles:
            if not assign(c, set()):
                # no unused set holds this failed node: reuse the first that does
                observers[c] = next(observer_sets[s] for s in sets
                                    if order[c][0] in observer_sets[s])
        for s, c in owner.items():
            observers[c] = observer_sets[s]
    return [(f, hs, obs) for (f, hs), obs in zip(order, observers)]


def make_job(w: Workload, seed: int, work_dir: Path) -> dict:
    """Write the seeded input files under work_dir and return the job description.

    The seed fixes every file size and byte and the whole failure, helper and
    observer schedule; the program only ever sees the files and node lists.
    """
    rng = random.Random(f"{w.name}:{seed}")
    if w.name == "bulk-msr-p257":
        # node 1 is excluded as the failed node: its Vandermonde row
        # (1, 0, ..., 0) makes repair about 40% cheaper, and with a single
        # pattern per run the seed would decide the result
        pattern = _random_pattern(rng, w, rng.randrange(2, w.n + 1))
        # near the low end of 32-64 KiB, so that a run holds several cycles
        sizes = [34 * KIB + rng.randint(-2 * KIB, 2 * KIB) for _ in range(4)]
        patterns = [pattern] * MAX_CYCLES
        round_length = 1
    elif w.name == "churn-cutset-gf256":
        round_length = w.n
        sizes = _stratified_sizes(rng, MAX_CYCLES // w.n, w.n, 1 * KIB, 8 * KIB)
        patterns = _churn_patterns(rng, w, MAX_CYCLES)
    else:
        round_length = w.n
        sizes = _stratified_sizes(rng, MAX_CYCLES // w.n, w.n, 1 * KIB, 16 * KIB)
        patterns = [_random_pattern(rng, w, f) for f in _failure_order(rng, w, MAX_CYCLES)]

    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True)
    files = []
    for i, size in enumerate(sizes):
        path = inputs / f"file{i:03d}.bin"
        path.write_bytes(rng.randbytes(size))
        files.append(str(path))
    warmup = inputs / "warmup.bin"
    warmup.write_bytes(rng.randbytes(rng.randint(1 * KIB, 2 * KIB)))

    cycles = [{"file": files[i % len(files)], "failed": f, "helpers": hs, "observers": obs}
              for i, (f, hs, obs) in enumerate(patterns)]
    return {
        "workload": w.name, "seed": seed,
        "n": w.n, "k": w.k, "d": w.d, "mu": w.mu, "q": w.q, "via_cli": w.via_cli,
        "work_dir": str(work_dir),
        "warmup": {"file": str(warmup), "failed": patterns[0][0],
                   "helpers": patterns[0][1], "observers": patterns[0][2]},
        "cycles": cycles,
        "round_length": round_length,
    }
