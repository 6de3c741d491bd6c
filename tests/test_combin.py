# Subset enumeration, ranking, and the ind counting function

import math

import pytest

from cascade_codes.combin import (
    binomial,
    ind_count,
    subset_rank,
    subsets_lex,
)

from oracles import oracle_binomial, oracle_subsets


def test_binomial_matches_oracle():
    for ell in range(0, 12):
        for m in range(0, 12):
            assert binomial(ell, m) == oracle_binomial(ell, m)


def test_binomial_edge_conventions():
    # the empty product convention must survive negative upper index
    assert binomial(-1, 0) == 1
    assert binomial(-3, 0) == 1
    assert binomial(5, 0) == 1
    assert binomial(-1, 1) == 0
    assert binomial(2, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(10, 4) == math.comb(10, 4)


def test_subsets_lex_matches_oracle():
    for d in range(0, 8):
        for m in range(0, d + 1):
            assert subsets_lex(d, m) == oracle_subsets(d, m)


def test_subsets_lex_examples():
    assert subsets_lex(4, 2) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert subsets_lex(3, 0) == [()]
    assert subsets_lex(3, 3) == [(1, 2, 3)]


def test_subsets_lex_errors():
    with pytest.raises(ValueError):
        subsets_lex(3, 4)
    with pytest.raises(ValueError):
        subsets_lex(-1, 0)
    with pytest.raises(ValueError):
        subsets_lex(3, -1)


def test_rank_unrank_round_trip_exhaustive():
    for d in range(0, 8):
        for m in range(0, d + 1):
            for rank, subset in enumerate(subsets_lex(d, m)):
                assert subset_rank(d, subset) == rank


def test_ind_count():
    assert ind_count((1, 2, 3), 1) == 1
    assert ind_count((1, 2, 3), 3) == 3
    assert ind_count((2, 4, 6), 5) == 2
    assert ind_count((2, 4, 6), 1) == 0
    # works for probes outside the set, counting members not above it
    for subset in subsets_lex(5, 3):
        for x in range(1, 6):
            assert ind_count(subset, x) == sum(1 for y in subset if y <= x)


def test_swap_above_max_moves_later_in_lex_order():
    # replacing any member t of I by an element x beyond max(I) yields a
    # set that sorts strictly after I; decoding columns in reverse lex
    # order therefore sees (I + x) - t before I
    for d in range(1, 9):
        for m in range(1, d + 1):
            for i_set in subsets_lex(d, m):
                for x in range(max(i_set) + 1, d + 1):
                    for t in i_set:
                        swapped = tuple(sorted(set(i_set) - {t} | {x}))
                        assert subset_rank(d, swapped) > subset_rank(d, i_set)
