"""Exact linear algebra over the integers and rationals.

Used for kernels whose Gram matrices are integer-valued (the binomial
kernel).  A nested filtration needs only one fraction-free (Bareiss)
elimination of its last stage, because every stage is a leading block of it:
the elimination's pivots are the leading principal minors, so one pass yields
the determinant of every stage, and the eliminated column of a unit vector
yields every stage's projection norm (see :func:`leading_minors`).  By
Cramer's rule that norm is also the ratio det(target-deleted block) /
det(block), so the same pass serves the determinant ratios.
"""

from __future__ import annotations

from .errors import SingularGram


def leading_minors(matrix, target):
    """Leading principal minors of a symmetric integer matrix in one pass.

    Runs a no-swap Bareiss elimination of ``[K | e_target]`` (Bareiss 1968).
    Returns ``(minors, column)``: ``minors[k] = det K[:k+1, :k+1]``, the k-th
    pivot, and ``column[k]``, the eliminated entry of ``e_target`` in row k.
    With ``minors[-1]`` read as 1, the projection norm of the target's point
    mass on the first m points is

        (K_m^{-1})[t, t] = sum_{k=t}^{m-1} column[k]^2 / (minors[k-1] minors[k]),

    the exact analogue of a Cholesky factor's ``(L^-1 e_target)_k^2``.

    A zero pivot means a singular leading block.  For a positive semidefinite
    K every larger leading block is then singular too (a null vector of the
    block extends by zeros to one of K), so no later minor or norm exists and
    :class:`SingularGram` is raised.
    """
    n = len(matrix)
    # Each row of [K | e_target] from its diagonal on, packed end to end.  K
    # stays symmetric, so step k reads column k from its pivot row, and the
    # rows it updates are all of ``live`` after that row.
    live = [int(v) for i, row in enumerate(matrix) for v in (*row[i:], i == target)]
    minors, column, prev = [], [], 1
    for k in range(n):
        width = n - k + 1
        pivot, akk = live[:width], live[0]
        if akk == 0:
            raise SingularGram(f"leading minor of order {k + 1} is zero: the Gram block is singular")
        minors.append(akk)
        column.append(pivot[-1])
        products = [a * b for m, a in enumerate(pivot[1:-1], 1) for b in pivot[m:]]
        # exact division by the previous pivot; both are 1 when K = L L^T with
        # a unit-triangular L, as for the binomial kernel on {0..N}
        if akk == 1 and prev == 1:
            live = [v - p for v, p in zip(live[width:], products)]
        else:
            live = [(v * akk - p) // prev for v, p in zip(live[width:], products)]
        prev = akk
    return minors, column
