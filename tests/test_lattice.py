import random

import pytest

from placeforge import lattice

from oracles import brute_member, fraction_rank


def mat_mul(u, rows):
    return [
        [sum(u[i][k] * rows[k][j] for k in range(len(rows))) for j in range(len(rows[0]))]
        for i in range(len(u))
    ]


def det3(m):
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det3(minor)
    return total


def random_matrix(rng, m, n, span=6):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]


def test_hnf_transform_reconstructs():
    rng = random.Random(1)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        h, u, pivots = lattice.hnf_transform(rows)
        assert mat_mul(u, rows) == h
        if m <= 3:
            assert abs(det3(u)) == 1
        # echelon shape with positive pivots, reduced above
        last = -1
        for r, c in pivots:
            assert c > last
            last = c
            assert h[r][c] > 0
            for i in range(r):
                assert 0 <= h[i][c] < h[r][c]


def test_row_kernel_annihilates_and_is_saturated():
    rng = random.Random(2)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_matrix(rng, m, n)
        kern = lattice.row_kernel(rows)
        for z in kern:
            assert all(
                sum(z[i] * rows[i][j] for i in range(m)) == 0 for j in range(n)
            )
        assert len(kern) == m - lattice.int_rank(rows)


def test_express_int_matches_brute_force():
    rng = random.Random(3)
    for _ in range(300):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = random_matrix(rng, m, n, span=3)
        basis = lattice.hnf(rows)
        target = tuple(rng.randint(-5, 5) for _ in range(n))
        got = lattice.express_int(basis, target) is not None
        want = brute_member(basis, target, box=14)
        assert got == want, (basis, target)


def pivot_express_int(basis, target):
    """express_int as it was before it found pivots inline: a pivot_cols
    pass first, then a whole-row subtraction from a copy of each row."""
    y = list(target)
    coeffs = []
    for row, pc in zip(basis, lattice.pivot_cols(basis)):
        c, rem = divmod(y[pc], row[pc])
        if rem != 0:
            return None
        if c:
            other = list(row)
            for j in range(len(y)):
                y[j] -= c * other[j]
        coeffs.append(c)
    if any(y):
        return None
    return coeffs


def test_express_int_matches_the_pivot_cols_form():
    """Seeded HNF bases, with members (integer combinations of the basis)
    and non-members (a random vector, or a member plus a fraction of a
    basis row that the lattice misses): the same coefficients or None."""
    rng = random.Random(5)
    found = {"member": 0, "none": 0}
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        basis = lattice.hnf(random_matrix(rng, m, n, span=rng.choice([3, 9, 2**40])))
        coeffs = [rng.randint(-4, 4) for _ in basis]
        member = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)]
        targets = [member, [rng.randint(-9, 9) for _ in range(n)]]
        if basis and max(basis[0]) > 1:
            targets.append([x + (y // 2 if y > 1 else 0) for x, y in zip(member, basis[0])])
        for target in targets:
            got = lattice.express_int(basis, target)
            assert got == pivot_express_int(basis, target), (basis, target)
            found["member" if got is not None else "none"] += 1
        assert lattice.express_int(basis, member) == coeffs
    assert min(found.values()) > 100, found


def test_int_rank_matches_fraction_elimination():
    rng = random.Random(4)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_matrix(rng, m, n)
        assert lattice.int_rank(rows) == fraction_rank(rows)


def weight_rows(rng, arity, levels, span=9):
    """Integer rows shaped like a place's (a, b) column pairs per level,
    with zero levels, zero rows, and repeated and scaled rows mixed in."""
    rows = []
    dead = {lv for lv in range(levels) if rng.random() < 0.2}
    for _ in range(arity):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.3:
            c = rng.choice([-3, -2, 2, 5])
            rows.append([c * x for x in rng.choice(rows)])
        elif kind < 0.4:
            rows.append([0] * (2 * levels))
        else:
            rows.append([0 if j // 2 in dead else rng.randint(-span, span)
                         for j in range(2 * levels)])
    return rows


def test_rank_profile_matches_hnf_pivot_columns():
    rng = random.Random(6)
    matrices = [weight_rows(rng, rng.randint(1, 8), rng.randint(1, 6)) for _ in range(400)]
    for _ in range(3):
        # 32 x 32 with entries in +-9, one row a combination of two others
        rows = random_matrix(rng, 32, 32, span=9)
        rows[5] = [2 * x - y for x, y in zip(rows[1], rows[2])]
        matrices.append(rows)
    for rows in matrices:
        _, _, pivots = lattice.hnf_transform(rows)
        profile = lattice.rank_profile(rows)
        assert profile == [c for _, c in pivots], rows
        assert lattice.int_rank(rows) == len(profile) == fraction_rank(rows)
    assert [len(lattice.rank_profile(rows)) for rows in matrices[-3:]] == [31] * 3
    # no columns, no rows, and only zero rows
    assert lattice.rank_profile([[], []]) == []
    assert lattice.rank_profile([]) == []
    assert lattice.rank_profile([[0, 0, 0]] * 4) == []


def test_reduce_mod_lattice_balanced_and_canonical():
    basis = [(3, -2)]
    assert lattice.reduce_mod_lattice((-1, 1), basis) == (-1, 1)
    assert lattice.reduce_mod_lattice((-2, 2), basis) == (1, 0)
    assert lattice.reduce_mod_lattice((2, -1), basis) == (-1, 1)
    # equivalent inputs land on the same representative
    rng = random.Random(5)
    for _ in range(100):
        base = (rng.randint(-4, 4), rng.randint(-4, 4))
        k = rng.randint(-3, 3)
        shifted = (base[0] + 3 * k, base[1] - 2 * k)
        assert lattice.reduce_mod_lattice(base, basis) == lattice.reduce_mod_lattice(
            shifted, basis
        )


def test_membership_invariant_under_unimodular_moves():
    rng = random.Random(6)
    for _ in range(100):
        rows = random_matrix(rng, 3, 3, span=4)
        basis = lattice.hnf(rows)
        # elementary row operations on the generators leave the lattice alone
        moved = [list(r) for r in rows]
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-3, 3)
        moved[i] = [x + c * y for x, y in zip(moved[i], moved[j])]
        assert lattice.hnf(moved) == basis


def test_clear_denominators():
    # rows of (num, den) pairs in lowest terms, over their least common denominator
    rows, den = lattice.clear_denominators([[(1, 2), (1, 3)]])
    assert den == 6 and rows == [(3, 2)]
