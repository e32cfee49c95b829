"""Exact linear algebra over the rationals.

Everything here is plain Gaussian elimination on lists of Fraction; no
floating point is used anywhere, so ranks and solved coefficients are
exact.  Matrices are small (at most a few hundred rows), which keeps
the naive O(n^3) elimination perfectly adequate.
"""

from fractions import Fraction


def _to_fraction_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.

    Returns (echelon_rows, pivot_columns).  The input is not modified.
    """
    m = _to_fraction_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    """Rank of the matrix over the rationals."""
    if not rows:
        return 0
    _, pivots = rref(rows)
    return len(pivots)


def solve_combination(rows, target):
    """Coefficients c with sum_i c[i] * rows[i] == target, or None.

    Solves the transposed system; free coefficients are set to zero, so the
    returned combination is deterministic.
    """
    nrows = len(rows)
    if nrows == 0:
        return [] if all(v == 0 for v in target) else None
    ncols = len(rows[0])
    # augmented transpose: one equation per column of `rows`
    aug = [[Fraction(rows[i][c]) for i in range(nrows)] + [Fraction(target[c])]
           for c in range(ncols)]
    ech, pivots = rref(aug)
    if nrows in pivots:  # pivot in the augmented column: inconsistent
        return None
    coeffs = [Fraction(0)] * nrows
    for r, pc in enumerate(pivots):
        coeffs[pc] = ech[r][nrows]
    return coeffs
