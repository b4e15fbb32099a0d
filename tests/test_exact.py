"""The fraction-free elimination against the row-by-row Bareiss loop it
replaced, kept here verbatim as the oracle: the same minors, the same
eliminated target column, and the same ``SingularGram`` at the same order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rkhskit import BinomialKernel, SingularGram
from rkhskit.exact import leading_minors

SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


def reference_leading_minors(matrix, target):
    n = len(matrix)
    rows = [[*map(int, row), int(i == target)] for i, row in enumerate(matrix)]
    minors = []
    prev = 1
    for k in range(n):
        row_k = rows[k]
        akk = row_k[k]
        if akk == 0:
            raise SingularGram(f"leading minor of order {k + 1} is zero: the Gram block is singular")
        minors.append(akk)
        for i in range(k + 1, n):
            row_i = rows[i]
            aik = row_k[i]
            row_i[i:] = [(v * akk - aik * w) // prev for v, w in zip(row_i[i:], row_k[i:])]
        prev = akk
    return minors, [row[n] for row in rows]


def outcome(eliminate, matrix, target):
    try:
        return eliminate(matrix, target)
    except SingularGram as err:
        return "SingularGram", str(err)


def assert_same_at_every_target(matrix):
    for target in range(len(matrix)):
        assert outcome(leading_minors, matrix, target) == outcome(reference_leading_minors, matrix, target)


def features(bound):
    """``F F^T`` for an integer F of n rows and r columns: positive
    semidefinite, of rank below n when r < n (a zero minor)."""
    return st.integers(1, 8).flatmap(lambda n: st.integers(1, n + 1).flatmap(lambda r: st.lists(
        st.lists(st.integers(-bound, bound), min_size=r, max_size=r), min_size=n, max_size=n)))


def gram_of(f):
    return [[sum(a * b for a, b in zip(u, v)) for v in f] for u in f]


@SETTINGS
@given(features(9))
def test_gram_of_signed_features(f):
    assert_same_at_every_target(gram_of(f))


@SETTINGS
@given(features(2 ** 40))
def test_entries_beyond_64_bits(f):
    assert_same_at_every_target(gram_of(f))


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(-6, 6), min_size=n * n, max_size=n * n)))
def test_symmetric_tables_that_are_not_semidefinite(entries):
    n = int(len(entries) ** 0.5)
    a = np.array(entries, dtype=object).reshape(n, n)
    assert_same_at_every_target((np.triu(a) + np.triu(a, 1).T).tolist())


@pytest.mark.parametrize("matrix, order", [
    ([[0, 1], [1, 3]], 1),
    ([[1, 1, 0], [1, 1, 0], [0, 0, 1]], 2),
    ([[4, 2, 2], [2, 1, 1], [2, 1, 5]], 2),
    ([[1, 2, 3], [2, 5, 7], [3, 7, 10]], 3),
])
def test_zero_minor_raises_at_its_order(matrix, order):
    assert_same_at_every_target(matrix)
    with pytest.raises(SingularGram, match=f"leading minor of order {order} is zero"):
        leading_minors(matrix, 0)


def test_unit_pivot_after_a_non_unit_one():
    # the second pivot is 1 but the first is 2, so step 2 still divides
    matrix = [[2, 1, 1], [1, 1, 1], [1, 1, 3]]
    assert_same_at_every_target(matrix)
    assert leading_minors(matrix, 0) == ([2, 1, 2], [1, -1, 0])  # (K^-1)_00 = 1/2 + 1/2 + 0


@pytest.mark.parametrize("points", [range(46), [7, 0, 3, 12, 1], [2, 9, 4, 30, 5, 11]], ids=["0..45", "unsorted", "gaps"])
def test_binomial_grams(points):
    assert_same_at_every_target(BinomialKernel().exact_gram(points))
