"""Exact rational oracles that share no code with ``rkhskit.exact``."""

from fractions import Fraction


def fraction_inverse_diagonal(matrix, index):
    """Independent oracle: exact Gauss-Jordan inverse over Fractions."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv[index][index]


def fraction_det(matrix):
    """Independent oracle: determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det
