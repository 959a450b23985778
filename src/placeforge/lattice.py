"""Exact integer-lattice linear algebra.

Row-style Hermite normal form with unimodular transform, integer kernels,
lattice membership, coordinate extraction, and the rank profile by
fraction-free elimination.  Everything runs on Python ints; no modular
shortcuts, no floating point.
"""

from __future__ import annotations

from math import gcd


def _row_sub(row, other, q):
    for j in range(len(row)):
        row[j] -= q * other[j]


def _row_neg(row):
    for j in range(len(row)):
        row[j] = -row[j]


def hnf_transform(rows):
    """Hermite normal form of integer `rows` with transform.

    Returns (h, u, pivots) where h = u * rows (as matrices), u is
    unimodular, the nonzero rows of h are in row echelon form with
    positive pivots and entries above each pivot reduced into
    [0, pivot), and pivots is the list of (row, col) pivot positions.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            piv = None
            for i in range(r, m):
                if mat[i][c] != 0 and (piv is None or abs(mat[i][c]) < abs(mat[piv][c])):
                    piv = i
            if piv is None:
                break
            if piv != r:
                mat[r], mat[piv] = mat[piv], mat[r]
                u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, m):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    _row_sub(mat[i], mat[r], q)
                    _row_sub(u[i], u[r], q)
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and mat[r][c] != 0:
            if mat[r][c] < 0:
                _row_neg(mat[r])
                _row_neg(u[r])
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    _row_sub(mat[i], mat[r], q)
                    _row_sub(u[i], u[r], q)
            pivots.append((r, c))
            r += 1
    return mat, u, pivots


def hnf(rows):
    """Nonzero HNF rows of integer `rows` (the canonical lattice basis)."""
    h, _, pivots = hnf_transform(rows)
    return [tuple(h[r]) for r, _ in pivots]


def rank_profile(rows):
    """Pivot columns of an echelon form of integer `rows`.

    Column c is a pivot when the rank of the first c + 1 columns exceeds
    that of the first c, so the list is the same for every echelon form,
    the HNF's included.  Found by fraction-free (Bareiss) elimination:
    after k pivots every entry below them is a (k + 1)-minor of the input,
    so the division by the previous pivot is exact and entries stay as
    small as the input's minors, where the HNF transform's grow freely.
    """
    mat = [list(r) for r in rows if any(r)]
    n = len(mat[0]) if mat else 0
    pivots = []
    prev = 1
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        p = top[c]
        rest = []
        for row in mat[r + 1:]:
            a = row[c]
            if a:
                row = [(p * x - a * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                row = [p * x // prev for x in row]
            if any(row):
                rest.append(row)
        mat[r + 1:] = rest
        prev = p
        pivots.append(c)
        if len(pivots) == len(mat):
            break  # every row left is a pivot row
    return pivots


def int_rank(rows):
    return len(rank_profile(rows))


def row_kernel(rows):
    """Canonical (HNF) basis of {z integer : z * rows = 0}."""
    m = len(rows)
    if m == 0:
        return []
    _, u, pivots = hnf_transform(rows)
    kern = [u[i] for i in range(len(pivots), m)]
    return hnf(kern)


def pivot_cols(rows):
    """Pivot column of each HNF basis row, assuming `rows` is already a basis."""
    cols = []
    for row in rows:
        for j, x in enumerate(row):
            if x != 0:
                cols.append(j)
                break
    return cols


def express_int(basis, target):
    """Integer coefficients of `target` over echelon `basis` rows, or None.

    `basis` must consist of HNF rows (echelon, positive pivots).  Each
    row's pivot is found as its first nonzero entry, and the row is
    subtracted in place from that column on, where its entries live.
    """
    y = list(target)
    coeffs = []
    for row in basis:
        pc = 0
        while not row[pc]:
            pc += 1
        c, rem = divmod(y[pc], row[pc])
        if rem:
            return None
        if c:
            for j in range(pc, len(y)):
                y[j] -= c * row[j]
        coeffs.append(c)
    if any(y):
        return None
    return coeffs


def reduce_mod_lattice(vec, basis):
    """Balanced canonical representative of `vec` modulo the row lattice `basis`.

    `basis` must be HNF rows.  At each pivot the coordinate is reduced to
    the residue of smallest absolute value, ties resolved positive.
    """
    y = list(vec)
    cols = pivot_cols(basis)
    for row, pc in zip(basis, cols):
        p = row[pc]
        rem = y[pc] % p
        if 2 * rem > p:
            rem -= p
        q = (y[pc] - rem) // p
        if q:
            _row_sub(y, list(row), q)
    return tuple(y)


def clear_denominators(pair_rows):
    """Rows of rationals, each a pair (num, den) in lowest terms with den > 0,
    as integer rows over their least common denominator: (int_rows, den),
    in lowest terms as a whole."""
    den = 1
    for row in pair_rows:
        for _, q in row:
            if den % q:
                den = den * q // gcd(den, q)
    return [tuple(n * (den // q) for n, q in row) for row in pair_rows], den
