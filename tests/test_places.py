import json
import random
from fractions import Fraction

import pytest

from placeforge import (
    INFINITY,
    AmbientGroup,
    BaseField,
    MonomialPlace,
    Poly,
    RatFunc,
    Subgroup,
    check_spv_axioms,
    compose,
    parse_expr,
    place_from_json,
)
from placeforge import lattice
from placeforge._kernels import term_mins
from placeforge.ordgroup import GroupElem, align_rows, combination_sign, row_sign, sqrt_convergents
from placeforge.places import (
    MAX_AXIOM_SAMPLE,
    MAX_TOWER_DEPTH,
    CompositePlace,
    NotInValueGroupError,
)

from gen import (
    monomial_place,
    random_composite_place,
    random_irrational_place,
    random_monomial_place,
    random_place,
    random_poly,
    random_ratfunc,
    random_tower,
)
from oracles import (
    elem,
    elem_add,
    elem_sign,
    elem_sub,
    fraction_rank,
    in_basic_open,
    oracle_value,
    qvec,
    scale,
    tower_residue,
    tower_value,
    values_agree,
)

QQ = BaseField(0)
F5 = BaseField(5)
AMB = AmbientGroup((2,))


# the level value sqrt(2), as an (a, b) pair
SQRT2 = (0, 1)


def gauss_place(*scalars, field=QQ):
    return monomial_place(field, AMB, [[s] for s in scalars])


def trivial_place(n):
    """The place with every weight 0 on n variables."""
    return MonomialPlace(QQ, n, AMB, [(0, 0)] * n)


P_SQRT = gauss_place(1, SQRT2)
P_10 = gauss_place(1, 0)
P_23 = gauss_place(2, 3)


def q2(text):
    return parse_expr(text, 2, QQ)


def row_difference_sign(place, f, g):
    """The sign of v(f) - v(g) for nonzero f and g: their value rows share
    the flat place's denominator, so the difference is taken on integers."""
    return row_sign([a - b for a, b in zip(place.value_row(f), place.value_row(g))],
                    place.ambient.ds)


class TestKernelLattice:
    def test_independent_weights(self):
        assert P_SQRT.kernel_lattice() == ()

    def test_zero_direction(self):
        assert P_10.kernel_lattice() == ((0, 1),)

    def test_rational_relation(self):
        assert P_23.kernel_lattice() == ((3, -2),)


class TestValue:
    def test_min_of_terms(self):
        v = P_SQRT.value(q2("x1^3 + x1*x2"))
        assert v == elem(AMB, (1, 1))

    def test_zero_and_one(self):
        assert P_SQRT.value(q2("0")) is INFINITY
        assert P_SQRT.value(q2("1")) == elem(AMB, 0)

    def test_composite_pair(self):
        tower = compose(P_10, gauss_place(1, field=QQ))
        amb = tower.ambient
        assert tower.value(q2("x2")) == elem(amb, 0, 1)
        assert tower.value(q2("x1*x2")) == elem(amb, 1, 1)

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            P_SQRT.value(parse_expr("x1", 2, F5))

    def test_zero_function_has_no_value_row(self):
        zero = RatFunc.zero(QQ, 2)
        tower = compose(P_10, gauss_place(1))
        for place in (trivial_place(2), P_SQRT, tower):
            with pytest.raises(ValueError, match="^the zero function has no value row$"):
                place.value_row(zero)


class TestResidue:
    def test_survivors_substituted(self):
        r = P_10.residue(q2("(x1 + x1*x2)/x1"))
        assert r == parse_expr("1 + u1", 1, QQ, names=("u1",))

    def test_positive_value_gives_zero(self):
        assert P_SQRT.residue(q2("x1")).is_zero()

    def test_dropped_term(self):
        assert P_SQRT.residue(q2("(x1 + x2)/x1")) == RatFunc.const(QQ, 0, 1)

    def test_negative_value_gives_infinity(self):
        assert P_SQRT.residue(q2("1/x1")) is INFINITY

    def test_zero_residue_convention(self):
        assert P_10.residue(q2("0")).is_zero()

    def test_multiplicative_on_units(self):
        rng = random.Random(5)
        checked = 0
        while checked < 30:
            f = random_ratfunc(rng, QQ, 2, nonzero=True)
            g = random_ratfunc(rng, QQ, 2, nonzero=True)
            vf, vg = P_10.value(f), P_10.value(g)
            if vf is INFINITY or vg is INFINITY or vf.sign() or vg.sign():
                continue
            assert (P_10.residue(f) * P_10.residue(g)) == P_10.residue(f * g)
            checked += 1

    def test_additive_on_units(self):
        # residue(f + g) = residue(f) + residue(g) on value-zero pairs,
        # where a positive sum value forces the residues to cancel
        rng = random.Random(15)
        checked = 0
        while checked < 30:
            f = random_ratfunc(rng, QQ, 2, nonzero=True)
            g = random_ratfunc(rng, QQ, 2, nonzero=True)
            vf, vg = P_10.value(f), P_10.value(g)
            if vf is INFINITY or vg is INFINITY or vf.sign() or vg.sign():
                continue
            s = f + g
            vs = P_10.value(s)
            rsum = P_10.residue(f) + P_10.residue(g)
            if vs is INFINITY or vs.sign() > 0:
                assert rsum.is_zero()
            else:
                assert rsum == P_10.residue(s)
            checked += 1


class TestSection:
    def test_canonical_solutions(self):
        assert P_23.section(elem(AMB, 1)) == (-1, 1)
        assert P_23.section(elem(AMB, 0)) == (0, 0)
        assert P_23.section(elem(AMB, 2)) == (1, 0)

    def test_not_in_group(self):
        with pytest.raises(NotInValueGroupError):
            P_23.section(elem(AMB, Fraction(1, 2)))

    def test_section_inverts_value(self):
        rng = random.Random(6)
        for _ in range(40):
            place = random_monomial_place(rng, QQ, 3)
            m = tuple(rng.randint(-4, 4) for _ in range(3))
            v = place.monomial_value(m)
            s = place.section(v)
            assert place.monomial_value(s) == v

    def test_raw_section_of_an_unreduced_tower_slice(self):
        """A tower hands each level its slice of the value row over the
        tower's denominator, in whatever terms that leaves it; the section
        of the slice is that of the reduced element, on both place kinds."""
        rng = random.Random(14)
        unreduced = 0
        for _ in range(40):
            tower = random_tower(rng, rng.choice([QQ, F5]), 3, rng.random() < 0.5,
                                 depth=rng.choice([1, 2]), nest=rng.choice(["inner", "outer"]))
            v = tower.monomial_value(tuple(rng.randint(-3, 3) for _ in range(3)))
            assert tower.monomial_value(tower._raw_section(v.row, v.den)) == v
            width = 2 * tower.inner.ambient.num_levels
            for level, row in ((tower.inner, v.row[:width]), (tower.outer, v.row[width:])):
                reduced = GroupElem.from_row(level.ambient, row, v.den)
                unreduced += reduced.den != v.den
                raw = level._raw_section(row, v.den)
                assert raw == level._raw_section(reduced.row, reduced.den)
                kernel = list(level.kernel_lattice())
                assert lattice.reduce_mod_lattice(raw, kernel) == level.section(reduced)
            k = rng.randint(2, 5)
            assert tower._raw_section([k * x for x in v.row], k * v.den) == \
                tower._raw_section(v.row, v.den)
        assert unreduced >= 10

    def test_not_in_group_message(self):
        """The refusal names the element in lowest terms, however its row
        was handed over, and at whichever tower level it fails."""
        for row, den in (((1, 0), 2), ((2, 0), 4), ((-3, 0), 6)):
            with pytest.raises(NotInValueGroupError, match="^-?1/2 is not in the value group$"):
                P_23._raw_section(row, den)
        place = gauss_place(2, 4)
        with pytest.raises(NotInValueGroupError, match="^1 is not in the value group$"):
            place.section(elem(AMB, 1))
        with pytest.raises(NotInValueGroupError, match="^3 is not in the value group$"):
            place._raw_section((9, 0), 3)
        tower = compose(P_23, gauss_place(2))
        with pytest.raises(NotInValueGroupError, match="^3/2 is not in the value group$"):
            tower.section(elem(tower.ambient, 1, Fraction(3, 2)))
        with pytest.raises(NotInValueGroupError, match="^1/3 is not in the value group$"):
            tower._raw_section((2, 0, 4, 0), 6)


class TestInvariants:
    def test_prime_divisor(self):
        inv = P_23.invariants()
        assert (inv.dim, inv.rr, inv.rank) == (1, 1, 1)
        assert inv.prime_divisor and inv.abhyankar and inv.discrete
        assert not inv.rational

    def test_rational_rank_two(self):
        inv = P_SQRT.invariants()
        assert (inv.dim, inv.rr, inv.rank) == (0, 2, 1)
        assert inv.abhyankar and inv.rational
        assert not inv.discrete and not inv.maximal_rank

    def test_lex_maximal_rank(self):
        amb2 = AmbientGroup((2, 2))
        place = MonomialPlace(QQ, 2, amb2, [(1, 0, 0, 0), (0, 0, 1, 0)])
        inv = place.invariants()
        assert (inv.dim, inv.rr, inv.rank) == (0, 2, 2)
        assert inv.maximal_rank and inv.rational and inv.abhyankar

    def test_monomial_always_abhyankar(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            place = random_monomial_place(rng, rng.choice([QQ, F5]), n,
                                          levels=rng.choice([1, 2]))
            inv = place.invariants()
            assert inv.dim + inv.rr == n


def reference_invariants(place):
    """(dim, rr, rank) by fraction elimination: rr and the convex rank from
    the prefix ranks of the value group's generators, dim from the rank of
    the variables' values computed through the tower."""
    rows = list(place.value_group().rows)
    prefix = [fraction_rank([row[: 2 * i] for row in rows]) if rows else 0
              for i in range(place.ambient.num_levels + 1)]
    rank = sum(prefix[i] > prefix[i - 1] for i in range(1, len(prefix)))
    xs = [RatFunc.variable(place.field, place.arity, i) for i in range(place.arity)]
    dim = place.arity - fraction_rank([qvec(tower_value(place, x)) for x in xs])
    return dim, prefix[-1], rank


def test_invariants_match_fraction_reference():
    rng = random.Random(31)
    places = []
    for i in range(96):
        field, n = (QQ, F5)[i % 2], 2 + i % 5
        places.append(random_monomial_place(rng, field, n, levels=1 + i % 3))
        places.append(random_tower(rng, field, n, irrational_inner=i % 4 < 2, depth=1 + i % 2))
    rng = random.Random(32)
    for i in range(48):
        field, n = (QQ, F5)[i % 2], 2 + i % 5
        places.append(random_tower(rng, field, n, irrational_inner=i % 4 < 2, depth=1 + i % 3,
                                   nest="outer"))
    for place in places:
        inv = place.invariants()
        assert (inv.dim, inv.rr, inv.rank) == reference_invariants(place)
        n = place.arity
        assert inv.abhyankar == (inv.dim + inv.rr == n)
        assert inv.maximal_rank == (inv.rank == n)
        assert inv.prime_divisor == (inv.dim == n - 1)
        # the rows a place hands its value group are in lowest terms
        group = place.value_group()
        assert Subgroup.from_rows(place.ambient, group.rows, group.den) == group


def tower_levels(place):
    """Every place a tower is composed of, itself included."""
    out, stack = [], [place]
    while stack:
        p = stack.pop()
        out.append(p)
        if isinstance(p, CompositePlace):
            stack += [p.inner, p.outer]
    return out


def assert_unflattened(place):
    for p in tower_levels(place):
        assert "flat_place" not in vars(p)
        assert "effective_weights" not in vars(p)


def test_tower_invariants_build_no_flat_place():
    """dim comes from the residue description: classifying a tower builds
    no flat place at any level, and agrees with the flat place built later."""
    rng = random.Random(33)
    count = 0
    for field in (QQ, F5):
        for nest in ("inner", "outer"):
            for depth in (1, 2, 3):
                for i in range(4):
                    state = rng.getstate()
                    tower = random_tower(rng, field, 2 + i % 3, i % 2 == 1, depth, nest)
                    inv = tower.invariants()
                    assert_unflattened(tower)
                    assert (inv.dim, inv.rr, inv.rank) == reference_invariants(tower)
                    xs = [RatFunc.variable(field, tower.arity, j) for j in range(tower.arity)]
                    values = [tower.value(x) for x in xs]
                    assert "flat_place" in vars(tower)
                    assert values == [tower_value(tower, x) for x in xs]
                    assert inv.dim == len(tower.flat_place.kernel_lattice())
                    assert inv == tower.flat_place.invariants()
                    # the same chain composed the other way round is the same place
                    rng.setstate(state)
                    other = random_tower(rng, field, 2 + i % 3, i % 2 == 1, depth,
                                         {"inner": "outer", "outer": "inner"}[nest])
                    assert other.invariants() == inv
                    assert [other.value(x) for x in xs] == values
                    count += 1
    assert count == 48


@pytest.fixture
def hnf_calls(monkeypatch):
    """Count lattice.hnf_transform calls, wherever they come from."""
    calls = []
    hnf_transform = lattice.hnf_transform
    monkeypatch.setattr(lattice, "hnf_transform",
                        lambda rows: calls.append(rows) or hnf_transform(rows))
    return calls


def test_residue_dim_is_the_kernel_rank_and_invariants_run_no_hnf(hnf_calls):
    """dim from ranks alone: residue_dim agrees with the kernel basis the
    HNF builds, on monomial places and on towers nested both ways, and
    classifying any of them runs no HNF."""
    rng = random.Random(34)
    places = []
    for i in range(48):
        field, n = (QQ, F5)[i % 2], 1 + i % 6
        places.append(random_monomial_place(rng, field, n, levels=1 + i % 3,
                                            zero_frac=(0.25, 0.6)[i % 2]))
        for nest in ("inner", "outer"):
            places.append(random_tower(rng, field, n, i % 4 < 2, 1 + i % 3, nest))
    for place in places:
        hnf_calls.clear()
        inv = place.invariants()
        assert hnf_calls == []
        assert inv.dim == place.residue_dim() == len(place.kernel_lattice())
    assert {p.residue_dim() for p in places} >= {0, 1, 2, 3}


def abhyankar_places():
    """Seeded places from tests/gen.py, every kind placeforge builds:
    monomial places with 1-6 levels, the same with one level zero on every
    weight and one weight a repeated or scaled copy of another, and towers
    of depth 1-3 nested on either side."""
    rng = random.Random(23)
    places = []
    for i in range(36):
        field, n, levels = (QQ, F5)[i % 2], 1 + i % 6, 1 + (i * 5) % 6
        place = random_monomial_place(rng, field, n, levels=levels, zero_frac=(0.25, 0.6)[i % 2])
        rows = [list(w.row) for w in place.weights]
        zero = rng.randrange(levels)
        for row in rows:
            row[2 * zero:2 * zero + 2] = 0, 0
        src, dst = rng.randrange(n), rng.randrange(n)
        rows[dst] = [rng.choice((1, -2, 3)) * x for x in rows[src]]
        dens = [w.den for w in place.weights]
        dens[dst] = dens[src]
        places += [place, MonomialPlace(field, n, place.ambient, *align_rows(zip(rows, dens)))]
        for nest in ("inner", "outer"):
            places.append(random_tower(rng, field, n, i % 4 < 2, 1 + i % 3, nest))
    return places


def test_invariants_take_dim_from_abhyankars_equality():
    """Every place placeforge builds has dim + rr = n, so invariants take
    dim = n - rr: it agrees with residue_dim and with the kernel basis that
    the HNF builds, and the abhyankar flag holds."""
    places = abhyankar_places()
    for place in places:
        inv = place.invariants()
        assert inv.dim == place.residue_dim() == len(place.kernel_lattice()), place
        assert inv.abhyankar and inv.dim + inv.rr == place.arity
        assert inv.rr == fraction_rank(place.value_group().rows)
    assert {p.invariants().dim for p in places} >= {0, 1, 2, 3}


def test_invariants_of_a_monomial_place_run_one_rank_profile(monkeypatch):
    """dim, rr and rank of a monomial place come from one elimination of
    its weight rows, which later calls reuse."""
    calls = []
    rank_profile = lattice.rank_profile
    monkeypatch.setattr(lattice, "rank_profile",
                        lambda rows: calls.append(rows) or rank_profile(rows))
    place = place_from_json({"kind": "monomial", "base": "Q", "arity": 3,
                             "ambient": {"levels": [{"d": 2}, {"d": 3}]},
                             "weights": [[{"a": "1", "b": "0"}, {"a": "0", "b": "0"}],
                                         [{"a": "2", "b": "0"}, {"a": "1", "b": "1"}],
                                         [{"a": "0", "b": "1"}, {"a": "0", "b": "0"}]]})
    first = place.invariants()
    assert (first.dim, first.rr, first.rank) == (0, 3, 2)
    assert place.invariants() == first
    assert len(calls) == 1


def test_elements_over_an_equal_field_object_are_accepted():
    """A place checks an element's field by identity first, then by
    equality: an equal field built separately is the same field."""
    place = MonomialPlace(BaseField(5), 2, AMB, [(1, 0), (2, 0)])
    f = parse_expr("x1 + x2", 2, BaseField(5))
    assert f.field is not place.field
    assert place.value_row(f) == [1, 0]
    with pytest.raises(ValueError, match="does not live in the place's function field"):
        place.value_row(parse_expr("x1 + x2", 2, BaseField(7)))


@pytest.mark.parametrize("den", [-1, 0])
def test_monomial_place_refuses_a_denominator_below_one(den):
    """Weights over den -1 would print as -1 and -sqrt(2) while every value
    is computed with 1 and sqrt(2) (v(x1) printed -1 with sign +1, and
    to_json wrote "1/-1"); over den 0 printing divided by zero.  Both are
    refused with one ValueError line."""
    with pytest.raises(ValueError, match=r"^denominator must be a positive int, got .*$"):
        MonomialPlace(QQ, 2, AMB, [(1, 0), (0, 1)], den)


def test_invariants_of_a_48_by_48_place_match_fraction_elimination(hnf_calls):
    """Arity 48 and 48 levels (weights in +-9, radicand 2), eight variables
    valued in the span of the others: rr, dim and rank against the
    Fraction oracle.  The first 2L columns having rank 2L = rr means each
    of the first L levels jumps and no later one does, so the rank is L."""
    rng = random.Random(35)
    amb = AmbientGroup((2,) * 48)
    rows = [tuple(x for _ in range(48) for x in (rng.randint(-9, 9), rng.randint(-9, 9)))
            for _ in range(40)]
    for _ in range(8):
        w, c, u = rng.choice(rows[:40]), rng.choice([-2, 3]), rng.choice(rows[:40])
        rows.append(tuple(c * x + y for x, y in zip(w, u)))
    rng.shuffle(rows)
    place = MonomialPlace(QQ, 48, amb, rows)
    inv = place.invariants()
    assert hnf_calls == []
    rr = fraction_rank(rows)
    levels = rr // 2
    assert fraction_rank([row[:2 * levels] for row in rows]) == 2 * levels == rr == 40
    assert (inv.dim, inv.rr, inv.rank) == (48 - rr, rr, levels)


def test_deepest_inner_tower_classifies_without_flattening(monkeypatch, hnf_calls):
    trivial = trivial_place(1).to_json()
    obj = P_10.to_json()
    for _ in range(MAX_TOWER_DEPTH):
        obj = {"kind": "composite", "inner": obj, "outer": trivial}
    tower = place_from_json(obj)
    built = []
    init = MonomialPlace.__init__
    monkeypatch.setattr(MonomialPlace, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    inv = tower.invariants()
    assert built == []
    # neither decoding nor classifying computes a kernel basis
    assert hnf_calls == []
    assert_unflattened(tower)
    assert (inv.dim, inv.rr, inv.rank) == (1, 1, 1)


class TestValueGroupStructure:
    def test_independent_weights_split_as_direct_sum(self):
        # weights (1, sqrt2, 0, 0): value group <1> + <sqrt2>, kernel rank 2
        amb = AMB
        place = MonomialPlace(QQ, 4, amb, [(1, 0), (0, 1), (0, 0), (0, 0)])
        group = place.value_group()
        target = Subgroup.from_rows(amb, [(1, 0), (0, 1)])
        # equal subgroups: one denominator and one HNF basis of the rows
        assert group.den == target.den
        assert lattice.hnf(group.rows) == lattice.hnf(target.rows)
        assert len(place.kernel_lattice()) == 2
        assert place.residue_desc().num_gens == 2


class TestCompose:
    def test_rank_additivity(self):
        tower = compose(P_10, gauss_place(1))
        assert tower.invariants().rank == P_10.invariants().rank + gauss_place(1).invariants().rank

    def test_trivial_outer(self):
        tower = compose(P_SQRT, trivial_place(0))
        v = tower.value(q2("x1 + x2"))
        inner_v = P_SQRT.value(q2("x1 + x2"))
        assert v.coords[:1] == inner_v.coords
        assert all(c.a == c.b == 0 for c in v.coords[1:])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose(P_SQRT, gauss_place(1))  # inner has no residue generators

    def test_residue_example(self):
        tower = compose(P_10, gauss_place(1))
        assert tower.value(q2("x2 - 1")) == elem(tower.ambient, 0, 0)
        assert tower.residue(q2("x2 - 1")) == RatFunc.const(QQ, 0, -1)

    def test_outer_order_embeds_convexly(self):
        rng = random.Random(8)
        for _ in range(30):
            tower = random_composite_place(rng, QQ, 3)
            outer = tower.outer
            kernel = tower.inner.residue_desc().gens
            if not kernel:
                continue
            # composite values with zero inner part compare like the outer values
            f = RatFunc.monomial(QQ, 3, kernel[rng.randrange(len(kernel))])
            g = RatFunc.monomial(QQ, 3, kernel[rng.randrange(len(kernel))])
            rf, rg = tower.inner.residue(f), tower.inner.residue(g)
            assert row_difference_sign(tower, f, g) == row_difference_sign(outer, rf, rg)

    def test_dim_recurses_through_tower(self):
        rng = random.Random(9)
        for _ in range(30):
            tower = random_composite_place(rng, rng.choice([QQ, F5]), 3)
            assert tower.invariants().dim == tower.outer.invariants().dim

    def test_depth_three_tower(self):
        inner = gauss_place(1, 0, 0)  # dim 2 on x2, x3
        mid = gauss_place(1, 0)       # dim 1 on its second generator
        t1 = compose(inner, mid)
        assert t1.residue_desc().num_gens == 1
        outermost = gauss_place(SQRT2)
        t2 = compose(t1, outermost)
        inv = t2.invariants()
        assert inv.dim == 0 and inv.rr == 3 and inv.rank == 3


class TestBasicOpen:
    def test_whole_space(self):
        assert in_basic_open(P_SQRT, [], [])

    def test_example_membership(self):
        assert in_basic_open(P_SQRT, [q2("x1+x2"), q2("x1^2/x2")], [q2("x1")])

    def test_unit_never_vanishes(self):
        assert not in_basic_open(P_SQRT, [], [q2("1")])

    def test_zero_is_everywhere_finite_and_vanishing(self):
        assert in_basic_open(P_SQRT, [q2("0")], [q2("0")])


class TestSpvAxioms:
    def test_trivial_sample(self):
        assert check_spv_axioms(P_SQRT, [q2("0"), q2("1")]).passed

    def test_five_element_sample(self):
        sample = [q2(s) for s in ("x1", "x2", "x1+x2", "0", "1")]
        assert check_spv_axioms(P_SQRT, sample).passed

    def test_corrupted_comparator_fails(self):
        sample = [q2(s) for s in ("x1", "x2", "1")]

        def corrupt(f, g):
            vf, vg = P_SQRT.value(f), P_SQRT.value(g)
            if vf is INFINITY:
                return vg is INFINITY
            if vg is INFINITY:
                return True
            if (f - q2("x1")).is_zero() and (g - q2("x2")).is_zero():
                return False  # deliberately broken answer
            return elem_sign(elem_sub(vg, vf)) >= 0

        report = check_spv_axioms(P_SQRT, sample, divides=corrupt)
        assert not report.passed
        assert report.axiom in (1, 2, 3, 4, 5)


class TestPlaceJson:
    def test_monomial_round_trip(self):
        rng = random.Random(10)
        for _ in range(20):
            place = random_monomial_place(rng, rng.choice([QQ, F5]), rng.randint(1, 3),
                                          levels=rng.choice([1, 2]))
            blob = json.dumps(place.to_json(), sort_keys=True)
            back = place_from_json(json.loads(blob))
            assert json.dumps(back.to_json(), sort_keys=True) == blob

    def test_deep_tower_is_refused(self):
        trivial = trivial_place(1).to_json()
        obj = P_10.to_json()
        for _ in range(400):
            obj = {"kind": "composite", "inner": obj, "outer": trivial}
        with pytest.raises(ValueError, match="MAX_TOWER_DEPTH = 32"):
            place_from_json(obj)

    def test_composing_past_the_bound_is_refused(self):
        """A tower MAX_TOWER_DEPTH deep composes; one more composite on
        either side of it is refused, as place_from_json refuses it."""
        trivial = trivial_place(1)
        tower = trivial
        for _ in range(MAX_TOWER_DEPTH):
            tower = compose(tower, trivial)
        assert (trivial.depth, tower.depth) == (0, MAX_TOWER_DEPTH)
        assert place_from_json(tower.to_json()).depth == MAX_TOWER_DEPTH
        for inner, outer in ((tower, trivial), (trivial, tower)):
            with pytest.raises(ValueError, match="^composed place nests composite places "
                                                 "deeper than MAX_TOWER_DEPTH = 32$"):
                compose(inner, outer)

    def test_composite_round_trip(self):
        tower = compose(P_10, gauss_place(1))
        blob = json.dumps(tower.to_json(), sort_keys=True)
        back = place_from_json(json.loads(blob))
        assert json.dumps(back.to_json(), sort_keys=True) == blob
        assert back.value(q2("x1*x2")) == tower.value(q2("x1*x2"))


class TestAgainstIntervalOracle:
    def test_derived_value_examples(self):
        v = P_SQRT.value(q2("x1^3 + x1*x2"))
        assert values_agree(v, oracle_value(P_SQRT, q2("x1^3 + x1*x2")))
        tower = compose(P_10, gauss_place(1))
        for text in ("x2", "x1*x2"):
            assert values_agree(tower.value(q2(text)), oracle_value(tower, q2(text)))

    def test_random_agreement(self):
        rng = random.Random(11)
        for _ in range(60):
            field = rng.choice([QQ, F5])
            n = rng.randint(2, 3)
            place = random_place(rng, field, n)
            f = random_ratfunc(rng, field, n)
            assert values_agree(place.value(f), oracle_value(place, f))


class TestFlatTowerValue:
    """Composite places evaluate through their flattened monomial place;
    the recursive tower value is the reference."""

    @staticmethod
    def inner_tie(rng, tower):
        """A random term times 1 + (kernel monomials): every term has the
        same inner value, so the inner residue is not a monomial."""
        field, n = tower.field, tower.arity
        gens = tower.inner.residue_desc().gens
        tie = RatFunc.const(field, n, 1)
        for gen in rng.sample(gens, min(len(gens), 3)):
            tie = tie + RatFunc.monomial(field, n, gen, rng.randint(1, 4))
        base = random_poly(rng, field, n, max_degree=3, max_terms=1, nonzero=True)
        den = random_poly(rng, field, n, nonzero=True)
        one = Poly.const(field, n, 1)
        return RatFunc.make(base, one) * tie / RatFunc.make(den, one)

    def test_flat_value_matches_tower_value(self):
        rng = random.Random(12)
        count = 0
        for field in (QQ, F5):
            for n in range(2, 6):
                for irrational_inner in (False, True):
                    for depth in (1, 2):
                        for _ in range(3):
                            tower = random_tower(rng, field, n, irrational_inner, depth)
                            elems = [random_ratfunc(rng, field, n),
                                     random_ratfunc(rng, field, n, nonzero=True),
                                     self.inner_tie(rng, tower),
                                     self.inner_tie(rng, tower)]
                            for f in elems:
                                assert tower.value(f) == tower_value(tower, f)
                            xs = [RatFunc.variable(field, n, i) for i in range(n)]
                            rows, _ = lattice.clear_denominators(
                                [[(q.numerator, q.denominator)
                                  for q in qvec(tower_value(tower, x))] for x in xs])
                            kernel = tuple(lattice.row_kernel(rows))
                            assert tower.kernel_lattice() == kernel
                            assert tuple(lattice.hnf(tower.residue_desc().gens)) == kernel
                            count += 1
        assert count == 96


def assert_echelon(rows):
    """Each row's first nonzero entry is positive and lies strictly right
    of the row before's."""
    pivots = []
    for row in rows:
        j = next(j for j, x in enumerate(row) if x)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(set(pivots))


def residue_kind(r):
    """Which of infinity, 0, a nonzero constant or a nonconstant rational
    function the residue r is."""
    if r is INFINITY:
        return "infinity"
    if r.is_zero():
        return "zero"
    constant = r.num.constant() is not None and r.den.constant() is not None
    return "constant" if constant else "nonconstant"


class TestFlatTowerResidue:
    """A tower's residue is read off its flat place in the tower's residue
    generators; the recursive residue (the inner value's sign, then the
    outer residue of the inner residue) is the reference."""

    @staticmethod
    def tie(rng, field, n, gens):
        """1 plus up to three monomials x^m, m among `gens`: every term has
        value 0 wherever the generators lie in the kernel lattice."""
        tie = RatFunc.const(field, n, 1)
        for gen in rng.sample(gens, min(len(gens), 3)):
            tie = tie + RatFunc.monomial(field, n, gen, rng.randint(1, 4))
        return tie

    def elements(self, rng, tower):
        """Random elements, inner ties, and both divided by a monomial of
        their inner value or of their value, so that the inner value is 0
        (the outer place decides) or the value is 0 (a nonzero residue)."""
        field, n = tower.field, tower.arity
        inner_gens, gens = tower.inner.residue_desc().gens, tower.residue_desc().gens
        elems = [random_ratfunc(rng, field, n),
                 random_ratfunc(rng, field, n, nonzero=True),
                 TestFlatTowerValue.inner_tie(rng, tower),
                 self.tie(rng, field, n, gens) * self.tie(rng, field, n, inner_gens)
                 / self.tie(rng, field, n, inner_gens)]
        for f in elems[1:3]:
            inner_section = tower.inner.section(tower_value(tower.inner, f))
            elems.append(f / RatFunc.monomial(field, n, inner_section))
            elems.append(f / RatFunc.monomial(field, n, tower.section(tower.value(f))))
        return elems

    def test_residue_matches_the_recursive_residue(self):
        rng = random.Random(43)
        towers, inner_ties, kinds = 0, set(), set()
        for field in (QQ, F5):
            for depth in (1, 2, 3):
                for nest in ("inner", "outer"):
                    for i in range(8):
                        tower = random_tower(rng, field, 2 + 2 * depth + i % 2, i % 2 == 1, depth,
                                             nest)
                        gens = tower.residue_desc().gens
                        assert_echelon(gens)
                        towers += len(gens) >= 2
                        for f in self.elements(rng, tower):
                            got, want = tower.residue(f), tower_residue(tower, f)
                            assert got == want and str(got) == str(want)
                            kinds.add(residue_kind(got))
                            if not f.is_zero() and elem_sign(tower_value(tower.inner, f)) == 0:
                                inner_ties.add(residue_kind(got))
        assert towers >= 20
        assert kinds == inner_ties == {"zero", "infinity", "constant", "nonconstant"}

    @pytest.mark.parametrize("nest", ["inner", "outer"])
    def test_warm_residue_makes_four_term_passes_at_any_depth(self, monkeypatch, nest):
        """Once a tower has been evaluated, the residue of a value-zero
        element makes two term_mins passes for the inner value's sign and
        two on the flat place, at depth 1, 8 and MAX_TOWER_DEPTH."""
        f = q2("(x1 + x1*x2)/x1")
        want = P_10.residue(f)
        assert residue_kind(want) == "nonconstant"
        for depth in (1, 8, MAX_TOWER_DEPTH):
            if nest == "inner":
                tower = P_10
                for _ in range(depth):
                    tower = compose(tower, trivial_place(1))
            else:
                tower = trivial_place(1)
                for _ in range(depth - 1):
                    tower = compose(trivial_place(1), tower)
                tower = compose(P_10, tower)
            assert tower.depth == depth
            assert tower.residue(f) == want
            passes = []
            monkeypatch.setattr("placeforge.places.term_mins",
                                lambda *args: passes.append(1) or term_mins(*args))
            assert tower.residue(f) == want
            monkeypatch.undo()
            assert len(passes) == 4


def test_value_from_kernel_minimum_matches_combine():
    """v(f) taken from the kernel's integer minima equals the homomorphism
    x^e -> v(x^e) applied to the canonical minimizers, and the residue is 0
    or infinity exactly when that value is positive or negative."""
    rng = random.Random(41)
    count = 0
    for field in (QQ, F5):
        for n in (2, 3, 4):
            places = [random_monomial_place(rng, field, n, levels=levels)
                      for levels in (1, 2, 3)]
            places += [random_tower(rng, field, n, irrational_inner, rng.choice([1, 2]))
                       for irrational_inner in (False, True)]
            for place in places:
                flat = place.flat_place
                for _ in range(6):
                    g = random_ratfunc(rng, field, n, nonzero=True)
                    canon, _, _ = flat._min_data(g.num)
                    unit = g / RatFunc.monomial(field, n, canon)
                    for f in (g, unit):
                        num_canon, _, _ = flat._min_data(f.num)
                        den_canon, _, _ = flat._min_data(f.den)
                        v = place.value(f)
                        assert v == elem_sub(place.monomial_value(num_canon),
                                             place.monomial_value(den_canon))
                        r = place.residue(f)
                        s = v.sign()
                        assert (r is INFINITY) == (s < 0)
                        assert (r is not INFINITY and r.is_zero()) == (s > 0)
                        count += 1
    assert count == 2 * 3 * 5 * 6 * 2


def test_integer_signs_match_group_values():
    """monomial_sign, and row_sign of value_row, decided on the integer
    level rows and kernel minima, agree with the signs of monomial_value
    and value; the zero function has the value INFINITY and no row."""
    rng = random.Random(43)
    seen, monomial_seen = set(), set()
    count = 0
    for field in (QQ, F5):
        for n in (2, 3, 4):
            places = [random_monomial_place(rng, field, n, levels=levels)
                      for levels in (1, 2, 3)]
            places.append(random_irrational_place(rng, field, n, d=rng.choice([2, 3, 5])))
            places += [random_tower(rng, field, n, irrational_inner, depth)
                       for irrational_inner in (False, True) for depth in (1, 2)]
            for place in places:
                vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(6)]
                vectors += list(place.kernel_lattice())
                for m in vectors:
                    s = place.monomial_value(m).sign()
                    assert place.monomial_sign(m) == s
                    monomial_seen.add(s)
                flat = place.flat_place
                zero = RatFunc.zero(field, n)
                assert place.value(zero) is INFINITY
                with pytest.raises(ValueError, match="^the zero function has no value row$"):
                    place.value_row(zero)
                for _ in range(4):
                    g = random_ratfunc(rng, field, n, nonzero=True)
                    canon, _, _ = flat._min_data(g.num)
                    for f in (g, g / RatFunc.monomial(field, n, canon)):
                        s = place.value(f).sign()
                        assert row_sign(place.value_row(f), place.ambient.ds) == s
                        seen.add(s)
                count += 1
    assert count == 2 * 3 * 8
    assert monomial_seen == seen == {-1, 0, 1}

    # row_sign and combination_sign on integer qvec rows, against the oracle's
    # sign of the same value, summed by the oracle's arithmetic
    def row_elem(ambient, row):
        return GroupElem.from_row(ambient, row)

    row_seen, combo_seen = set(), set()
    for ds in ((2,), (3, 5), (2, 7, 3)):
        ambient = AmbientGroup(ds)
        width = 2 * len(ds)
        rows = [(0,) * width]
        for _ in range(30):
            big = 10**40 if rng.random() < 0.3 else 1
            rows.append(tuple(big * rng.randint(-3, 3) for _ in range(width)))
        for lv, d in enumerate(ds):
            # p - q*sqrt(d) for a convergent p/q: large entries, a tiny value,
            # after exact ties on every earlier level
            conv = next(Fraction(p, q) for p, q in sqrt_convergents(d) if q >= 10**30)
            for a, b in ((conv.numerator, -conv.denominator), (-conv.numerator, conv.denominator)):
                row = [0] * width
                row[2 * lv], row[2 * lv + 1] = a, b
                rows.append(tuple(row))
        # rows that differ from another row only in one sqrt column
        for row in rows[1:11]:
            lv = rng.randrange(len(ds))
            other = list(row)
            other[2 * lv + 1] += rng.choice([-1, 1]) * rng.randint(1, 3)
            rows.append(tuple(other))
            s = elem_sign(elem_sub(row_elem(ambient, other), row_elem(ambient, row)))
            assert combination_sign([other, row], [1, -1], ds) == s != 0
        for row in rows:
            s = elem_sign(row_elem(ambient, row))
            assert row_sign(row, ds) == s
            row_seen.add(s)
        for _ in range(80):
            picks = rng.sample(rows, rng.randint(1, 4))
            coeffs = [rng.randint(-3, 3) for _ in picks]
            if rng.random() < 0.2:
                # an exact tie: a row minus itself
                picks, coeffs = picks[:1] * 2, [1, -1]
            total = row_elem(ambient, (0,) * width)
            for row, c in zip(picks, coeffs):
                total = elem_add(total, scale(row_elem(ambient, row), c))
            s = elem_sign(total)
            assert combination_sign(picks, coeffs, ds) == s
            combo_seen.add(s)
    assert row_seen == combo_seen == {-1, 0, 1}


def test_monomial_sign_matches_the_combination_sign_form():
    """monomial_sign reads the level columns of the flat place; its
    previous form summed the weight rows by `combination_sign`.  On seeded
    places and towers of 1-3 levels per place, the two agree on random
    vectors, on kernel vectors (which tie on every level), on vectors that
    tie on the first level only, and on exponent differences of terms."""
    rng = random.Random(47)
    seen = set()
    ties_past_first = 0
    for field in (QQ, F5):
        for n in (1, 2, 3, 4):
            places = [random_monomial_place(rng, field, n, levels=levels, zero_frac=0.3)
                      for levels in (1, 2, 3)]
            places += [random_tower(rng, field, n, irrational_inner, depth, nest)
                       for irrational_inner in (False, True) for depth in (1, 2)
                       for nest in ("inner", "outer")]
            for place in places:
                flat = place.flat_place
                ds = flat.ambient.ds
                vectors = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(8)]
                vectors.append((0,) * n)
                kernel = list(place.kernel_lattice())
                vectors += kernel
                vectors += [tuple(a + b for a, b in zip(k, v)) for k in kernel for v in vectors[:3]]
                # vectors in the kernel of the first level alone
                first = lattice.row_kernel([row[:2] for row in flat._rows])
                vectors += [tuple(r) for r in first]
                for _ in range(3):
                    e1, e2 = (tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(2))
                    vectors.append(tuple(a - b for a, b in zip(e1, e2)))
                for m in vectors:
                    s = place.monomial_sign(m)
                    assert s == flat.monomial_sign(m) == combination_sign(flat._rows, m, ds)
                    seen.add(s)
                ties_past_first += sum(
                    1 for m in first if any(m) and combination_sign(flat._rows, m, ds))
    assert seen == {-1, 0, 1}
    assert ties_past_first > 0


def test_sign_and_initial_form_match_the_row_sign_and_least_terms():
    """sign_and_initial_form reads one term scan per side: its sign is that
    of value_row, and its initial form holds, on each side, the terms whose
    monomial value no other term's undercuts (by the oracle's sign).  A zero element, and one from
    another function field, are refused as initial_form refuses them."""
    rng = random.Random(53)
    seen = set()
    for field in (QQ, F5):
        for n in (1, 2, 3):
            places = [random_monomial_place(rng, field, n, levels=levels) for levels in (1, 2)]
            places += [random_tower(rng, field, n, irrational_inner)
                       for irrational_inner in (False, True)]
            for place in places:
                for _ in range(4):
                    f = random_ratfunc(rng, field, n, nonzero=True)
                    sign, form = place.sign_and_initial_form(f)
                    assert sign == row_sign(place.value_row(f), place.ambient.ds)
                    seen.add(sign)
                    least = []
                    for poly in (f.num, f.den):
                        values = {e: place.monomial_value(e) for e in poly.terms}
                        least.append({e: c for e, c in poly.terms.items()
                                      if all(elem_sign(elem_sub(values[o], values[e])) >= 0
                                             for o in values)})
                    assert form == tuple(least) == place.initial_form(f)
                other = random_ratfunc(rng, field, n + 1, nonzero=True)
                for bad in (RatFunc.zero(field, n), other):
                    with pytest.raises(ValueError):
                        place.sign_and_initial_form(bad)
    assert seen == {-1, 0, 1}


def test_rows_with_a_common_factor_build_the_same_place():
    """A place built from its integer rows and denominator times a common
    factor is the place built from them in lowest terms: the same reduced
    rows and denominator, kernel, values, value rows, residues, signs,
    invariants, JSON and weights.  Values, signs and residues build no
    weights."""
    rng = random.Random(53)
    count = 0
    for field in (QQ, F5):
        for levels in range(1, 7):
            for zero_frac in (0.0, 0.3, 1.0):
                n = rng.randint(1, 4)
                place = random_monomial_place(rng, field, n, levels=levels, zero_frac=zero_frac)
                c = rng.randint(1, 6)
                rows = [[c * x for x in row] for row in place._rows]
                built = MonomialPlace(field, n, place.ambient, rows, c * place._den)
                assert built._rows == place._rows and built._den == place._den
                assert built.kernel_lattice() == place.kernel_lattice()
                for _ in range(4):
                    f = random_ratfunc(rng, field, n)
                    assert built.value(f) == place.value(f)
                    if not f.is_zero():
                        assert built.value_row(f) == place.value_row(f)
                    assert built.residue(f) == place.residue(f)
                    m = tuple(rng.randint(-3, 3) for _ in range(n))
                    assert built.monomial_sign(m) == place.monomial_sign(m)
                assert "weights" not in vars(built)
                assert built.invariants() == place.invariants()
                assert built.to_json() == place.to_json()
                assert built.weights == place.weights
                count += 1
    assert count == 2 * 6 * 3


def naive_spv_axioms(place, sample, divides):
    """The axiom check as it reads: every divisibility recomputed."""
    zero = RatFunc.zero(place.field, place.arity)
    one = RatFunc.const(place.field, place.arity, 1)
    if divides(zero, one):
        return (False, 6, (zero, one))
    for x in sample:
        for y in sample:
            if not divides(x, y) and not divides(y, x):
                return (False, 1, (x, y))
    for x in sample:
        for y in sample:
            for z in sample:
                if divides(x, y) and divides(y, z) and not divides(x, z):
                    return (False, 2, (x, y, z))
                if divides(x, y) and divides(x, z) and not divides(x, y + z):
                    return (False, 3, (x, y, z))
                if divides(x, y) and not divides(x * z, y * z):
                    return (False, 4, (x, y, z))
                if divides(x * z, y * z) and not divides(zero, z) and not divides(x, y):
                    return (False, 5, (x, y, z))
    return (True, None, None)


def value_divides(place):
    values = {}

    def value(f):
        # by identity, holding f so its id stays unique: the sample
        # elements repeat, fresh products and sums are valued anew
        if id(f) not in values:
            values[id(f)] = (f, place.value(f))
        return values[id(f)][1]

    def divides(f, g):
        vf, vg = value(f), value(g)
        if vf is INFINITY:
            return vg is INFINITY
        if vg is INFINITY:
            return True
        return elem_sub(vg, vf).sign() >= 0
    return divides


def test_spv_axioms_match_the_naive_check():
    """The memoized check reports what the check as written reports: the
    default relation on seeded places and samples, and corrupted relations
    that must fail on the same axiom and the same first triple."""
    rng = random.Random(59)
    axioms = set()
    for i in range(16):
        field, n = (QQ, F5)[i % 2], 2 + i % 2
        place = random_place(rng, field, n)
        sample = [random_ratfunc(rng, field, n, max_terms=3) for _ in range(4)]
        sample.append(sample[0] + sample[1])
        reference = value_divides(place)
        want = naive_spv_axioms(place, sample, reference)
        assert want[0]
        report = check_spv_axioms(place, sample)
        assert (report.passed, report.axiom, report.witness) == want

        a, b = rng.choice(sample), rng.choice(sample)
        corruptions = (
            # one pair of sample elements answered wrongly
            lambda f, g: reference(f, g) != (f == a and g == b),
            # nothing outside the sample (a sum) is divisible
            lambda f, g: reference(f, g) and (g in sample or f not in sample),
            # nothing outside the sample (a product) divides
            lambda f, g: reference(f, g) and f in sample,
            # every nonzero product divides
            lambda f, g: reference(f, g) or (f not in sample and not f.is_zero()),
        )
        for corrupt in corruptions:
            want = naive_spv_axioms(place, sample, corrupt)
            report = check_spv_axioms(place, sample, divides=corrupt)
            assert (report.passed, report.axiom, report.witness) == want
            axioms.add(report.axiom)
    assert {1, 3, 4, 5} <= axioms


def test_spv_axioms_build_each_product_sum_and_value_once(monkeypatch):
    sample = [q2(f"x1^{i}*x2^{j}+{c}") for i, j, c in ((1, 0, 1), (2, 1, 2), (0, 2, 3), (1, 1, 1))]
    sample += [q2("0"), q2("1")]
    n = len(sample)
    products, rows = [], []
    mul, value_row = RatFunc.__mul__, MonomialPlace.value_row
    monkeypatch.setattr(RatFunc, "__mul__", lambda f, g: products.append(1) or mul(f, g))
    monkeypatch.setattr(MonomialPlace, "value_row",
                        lambda self, f: rows.append(1) or value_row(self, f))
    assert check_spv_axioms(P_SQRT, sample).passed
    pairs = n * (n + 1) // 2
    assert len(products) == pairs
    # every element, product and sum is valued at most once (zeros never)
    assert len(rows) <= n + 2 * pairs + 1


def test_spv_axiom_sample_budget():
    sample = [q2(f"x1^{i}+1") for i in range(MAX_AXIOM_SAMPLE + 1)]
    with pytest.raises(ValueError, match="MAX_AXIOM_SAMPLE"):
        check_spv_axioms(P_SQRT, sample)
