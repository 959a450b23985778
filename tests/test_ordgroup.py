import json
import pathlib
import random
from fractions import Fraction
from math import gcd

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import placeforge
from placeforge import (
    AmbientGroup,
    QuadScalar,
    Subgroup,
    convex_rank,
    order_embedding_check,
    rational_rank,
)
from placeforge import lattice, place_from_json
from placeforge.ordgroup import (
    MAX_LITERAL_DIGITS,
    MAX_RADICAND,
    GroupElem,
    align_rows,
    combination_sign,
    combine,
    rat_from_str,
    rows_from_json,
    sqrt_convergents,
)

from gen import random_quad
from oracles import elem_sign, fraction_rank, qvec, scale

AMB = AmbientGroup((2,))
AMB2 = AmbientGroup((2, 2))

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def quad(a, b, d=2):
    return QuadScalar(Fraction(a), Fraction(b), d)


def quad_sign(s):
    """Sign of a + b*sqrt(d): that of the one-level group element."""
    return AmbientGroup((s.d,)).elem(s).sign()


class TestQuadSign:
    def test_rational_case(self):
        assert quad_sign(quad(1, 0)) == 1

    def test_mixed_signs(self):
        assert quad_sign(quad(3, -2)) == 1  # 9 > 8
        assert quad_sign(quad(-3, 2)) == -1

    def test_zero(self):
        assert quad_sign(quad(0, 0)) == 0

    @given(a=fractions_st, b=fractions_st, d=st.sampled_from([2, 3, 5, 7]))
    def test_negation_and_zero_rule(self, a, b, d):
        s = QuadScalar(a, b, d)
        assert quad_sign(QuadScalar(-a, -b, d)) == -quad_sign(s)
        assert (quad_sign(s) == 0) == (a == 0 and b == 0)

    @given(a=fractions_st, b=fractions_st, d=st.sampled_from([2, 3, 5, 7]))
    def test_against_interval_oracle(self, a, b, d):
        amb = AmbientGroup((d,))
        e = GroupElem(amb, (QuadScalar(a, b, d),))
        assert e.sign() == elem_sign(e)


class TestElemOrder:
    def test_lex_dominance(self):
        assert (AMB2.elem(1, 0) - AMB2.elem(0, 5)).sign() == 1

    def test_one_vs_sqrt2(self):
        assert (AMB.elem(1) - AMB.elem(QuadScalar.sqrt(2))).sign() == -1

    def test_equal(self):
        assert (AMB2.elem(0, 0) - AMB2.elem(0, 0)).sign() == 0

    def test_mismatched_ambient(self):
        with pytest.raises(ValueError):
            (AMB.elem(1) - AMB2.elem(1, 0)).sign()

    @given(st.lists(st.tuples(fractions_st, fractions_st, fractions_st, fractions_st),
                    min_size=3, max_size=3))
    def test_total_order_on_triples(self, rows):
        elems = [GroupElem(AMB2, (quad(a, b), quad(c, d))) for a, b, c, d in rows]
        x, y, z = elems
        # antisymmetry
        assert (x - y).sign() == -(y - x).sign()
        # transitivity
        if (x - y).sign() <= 0 and (y - z).sign() <= 0:
            assert (x - z).sign() <= 0
        # translation invariance
        assert (x - y).sign() == ((x + z) - (y + z)).sign()


class TestRationalRank:
    def test_one_and_sqrt2(self):
        s = Subgroup(AMB, (AMB.elem(1), AMB.elem(QuadScalar.sqrt(2))))
        assert rational_rank(s) == 2

    def test_two_and_three(self):
        assert rational_rank(Subgroup(AMB, (AMB.elem(2), AMB.elem(3)))) == 1

    def test_empty(self):
        assert rational_rank(Subgroup(AMB, ())) == 0

    def test_bounds_and_span_stability(self):
        rng = random.Random(9)
        for _ in range(100):
            gens = tuple(
                GroupElem(AMB2, (quad(rng.randint(-3, 3), rng.randint(-3, 3)),
                                 quad(rng.randint(-3, 3), rng.randint(-3, 3))))
                for _ in range(rng.randint(0, 4))
            )
            s = Subgroup(AMB2, gens)
            rk = rational_rank(s)
            assert rk <= len(gens)
            assert rk <= 2 * AMB2.num_levels
            if gens:
                doubled = Subgroup(AMB2, gens + (gens[0] + gens[-1],))
                assert rational_rank(doubled) == rk
            assert rk == fraction_rank([qvec(g) for g in gens]) if gens else rk == 0

    def test_both_ranks_share_one_rank_profile(self, monkeypatch):
        """rational_rank and convex_rank on one Subgroup eliminate its rows
        once, in either order and however often they are asked."""
        calls = []
        rank_profile = lattice.rank_profile
        monkeypatch.setattr(lattice, "rank_profile",
                            lambda rows: calls.append(rows) or rank_profile(rows))
        gens = (AMB2.elem(1, 0), AMB2.elem(QuadScalar.sqrt(2), 5), AMB2.elem(0, 3))
        for first, second in ((rational_rank, convex_rank), (convex_rank, rational_rank)):
            s = Subgroup(AMB2, gens)
            calls.clear()
            assert (first(s), second(s), first(s), second(s)) == (
                (3, 2, 3, 2) if first is rational_rank else (2, 3, 2, 3))
            assert calls == [s.rows]


def member(s, x):
    """x lies in the subgroup s: over one denominator, its row is an integer
    combination of the HNF basis of s's rows."""
    rows, _ = align_rows([(r, s.den) for r in s.rows] + [(x.row, x.den)])
    return lattice.express_int(lattice.hnf(rows[:-1]), rows[-1]) is not None


class TestSubgroupMember:
    def test_five_in_two_three(self):
        assert member(Subgroup(AMB, (AMB.elem(2), AMB.elem(3))), AMB.elem(5))

    def test_sqrt2_not_in_one(self):
        assert not member(Subgroup(AMB, (AMB.elem(1),)), AMB.elem(QuadScalar.sqrt(2)))

    def test_third_not_in_one(self):
        # the denominators count: 1/3 is in the span of 1 but not in <1>
        assert not member(Subgroup(AMB, (AMB.elem(1),)), AMB.elem(Fraction(1, 3)))
        assert member(Subgroup(AMB, (AMB.elem(Fraction(2, 3)), AMB.elem(1))), AMB.elem(Fraction(1, 3)))

    def test_zero_always(self):
        assert member(Subgroup(AMB, ()), AMB.zero())
        assert member(Subgroup(AMB, (AMB.elem(7),)), AMB.zero())

    def test_combinations_are_members(self):
        rng = random.Random(12)
        for _ in range(40):
            gens = tuple(GroupElem(AMB2, (random_quad(rng, 2), random_quad(rng, 2)))
                         for _ in range(rng.randint(1, 3)))
            s = Subgroup(AMB2, gens)
            coeffs = [rng.randint(-4, 4) for _ in gens]
            assert member(s, combine(s.generators, coeffs, AMB2))
            assert member(s, sum((scale(g, c) for g, c in zip(gens, coeffs)), AMB2.zero()))

    def test_unimodular_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            g1 = AMB2.elem(rng.randint(-3, 3), rng.randint(-3, 3))
            g2 = AMB2.elem(rng.randint(-3, 3), rng.randint(-3, 3))
            x = AMB2.elem(rng.randint(-6, 6), rng.randint(-6, 6))
            c = rng.randint(-3, 3)
            s1 = Subgroup(AMB2, (g1, g2))
            s2 = Subgroup(AMB2, (g1 + scale(g2, c), g2))
            assert member(s1, x) == member(s2, x)
            # the HNF basis is the canonical form of the subgroup
            assert s1.den == s2.den and lattice.hnf(s1.rows) == lattice.hnf(s2.rows)


class TestConvexRank:
    def test_lex_units(self):
        s = Subgroup(AMB2, (AMB2.elem(1, 0), AMB2.elem(0, 1)))
        assert convex_rank(s) == 2

    def test_one_archimedean_level(self):
        s = Subgroup(AMB, (AMB.elem(1), AMB.elem(QuadScalar.sqrt(2))))
        assert convex_rank(s) == 1

    def test_trivial(self):
        assert convex_rank(Subgroup(AMB, (AMB.zero(),))) == 0

    def test_at_most_rational_rank(self):
        rng = random.Random(13)
        for _ in range(100):
            gens = tuple(
                GroupElem(AMB2, (quad(rng.randint(-2, 2), rng.randint(-2, 2)),
                                 quad(rng.randint(-2, 2), rng.randint(-2, 2))))
                for _ in range(rng.randint(0, 3))
            )
            s = Subgroup(AMB2, gens)
            assert convex_rank(s) <= rational_rank(s)


def reference_ranks(gens, levels):
    """(rational rank, convex rank) by plain fraction elimination: the rank
    of every prefix projection to levels 1..i, counting where it jumps."""
    rows = [qvec(g) for g in gens]
    prefix = [fraction_rank([row[: 2 * i] for row in rows]) if rows else 0
              for i in range(levels + 1)]
    return prefix[-1], sum(prefix[i] > prefix[i - 1] for i in range(1, levels + 1))


def seeded_subgroups(rng):
    """Subgroups with 1-6 levels: random generators with whole zero levels,
    repeated and multiplied rows, and lex_max_rank-shaped weights (one
    integer level, then unit tie-break levels)."""
    for _ in range(120):
        levels = rng.randint(1, 6)
        amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(levels)))
        zero_levels = {lv for lv in range(levels) if rng.random() < 0.3}
        gens = []
        for _ in range(rng.randint(0, 6)):
            gens.append(GroupElem(amb, tuple(
                QuadScalar.rational(0, d) if lv in zero_levels
                else random_quad(rng, d, span=2, irrational=rng.random() < 0.6)
                for lv, d in enumerate(amb.ds)
            )))
        if gens and rng.random() < 0.5:
            gens.append(gens[rng.randrange(len(gens))])
        if gens and rng.random() < 0.5:
            gens.append(scale(gens[rng.randrange(len(gens))], rng.choice([-2, 3])))
        yield amb, gens
    for _ in range(40):
        n = rng.randint(2, 6)
        ints = [rng.randint(-3, 3) for _ in range(n)]
        cols = rng.sample(range(n), rng.randint(0, n - 1))
        amb = AmbientGroup((2,) * (1 + len(cols)))
        gens = [amb.elem(ints[i], *(int(i == c) for c in cols)) for i in range(n)]
        yield amb, gens


def test_ranks_match_prefix_fraction_ranks():
    rng = random.Random(71)
    seen = set()
    for amb, gens in seeded_subgroups(rng):
        s = Subgroup(amb, tuple(gens))
        want = reference_ranks(gens, amb.num_levels)
        assert (rational_rank(s), convex_rank(s)) == want
        seen.add(want)
    # the seeds reach ranks well past one level and one jump
    assert max(rr for rr, _ in seen) >= 6 and max(rank for _, rank in seen) >= 5


def test_subgroup_rows_are_the_cleared_generators():
    s = Subgroup(AMB2, (AMB2.elem(Fraction(1, 2), quad(0, Fraction(1, 3))), AMB2.elem(1, 0)))
    assert s.den == 6
    assert s.rows == ((3, 0, 0, 2), (6, 0, 0, 0))
    assert Subgroup(AMB, ()).rows == ()


class TestOrderEmbedding:
    def test_doubling(self):
        v = order_embedding_check([AMB.elem(1)], [AMB.elem(2)], [(1,)])
        assert v.ok

    def test_mixed_targets(self):
        src = [AMB.elem(1), AMB.elem(quad(2, -1))]
        img = [AMB.elem(2), AMB.elem(1)]
        v = order_embedding_check(src, img, [(1, 0), (0, 1), (-1, 1)])
        assert v.ok

    def test_positive_to_zero(self):
        v = order_embedding_check([AMB.elem(1)], [AMB.zero()], [(1,)])
        assert v.status == "order_violated" and v.witness == (1,)

    def test_ill_defined(self):
        src = [AMB.elem(1), AMB.elem(2)]
        img = [AMB.elem(1), AMB.elem(3)]
        v = order_embedding_check(src, img, [])
        assert v.status == "ill_defined"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            order_embedding_check([AMB.elem(1)], [], [])

    def test_mixed_ambients_rejected(self):
        with pytest.raises(ValueError):
            order_embedding_check([AMB.elem(1), AMB2.elem(1, 0)], [AMB.elem(1)] * 2, [])

    @staticmethod
    def reference(sources, images, witnesses):
        """The check on group elements, combined with `combine`."""
        rows, _ = lattice.clear_denominators([qvec(s) for s in sources])
        for rel in lattice.row_kernel(rows):
            if not combine(images, rel, images[0].ambient).is_zero():
                return "ill_defined", tuple(rel)
        for w in witnesses:
            src = combine(sources, w, sources[0].ambient)
            img = combine(images, w, images[0].ambient)
            if src.sign() != img.sign():
                return "order_violated", tuple(w)
        return "ok", None

    def test_matches_group_element_reference(self):
        """Random sources and images in two different ambients: integer
        combinations of a few base elements (so relations occur), mapped by
        the same coefficients (a homomorphism), by an embedding into a
        longer ambient, or to unrelated elements."""
        rng = random.Random(7)
        statuses = {"ok": 0, "ill_defined": 0, "order_violated": 0}
        for _ in range(300):
            src_amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 2))))
            r, m = rng.randint(1, 3), rng.randint(1, 4)
            coeffs = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]

            def elems(amb):
                return [GroupElem(amb, tuple(random_quad(rng, d) for d in amb.ds))
                        for _ in range(r)]

            sources = [combine(elems(src_amb), row, src_amb) for row in coeffs]
            kind = rng.choice(["hom", "embed", "random"])
            if kind == "embed":
                img_amb = AmbientGroup(src_amb.ds + (rng.choice([2, 3]),))
                images = [GroupElem(img_amb, s.coords + (random_quad(rng, img_amb.ds[-1]),))
                          for s in sources]
            else:
                img_amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))
                if kind == "hom":
                    images = [combine(elems(img_amb), row, img_amb) for row in coeffs]
                else:
                    images = [GroupElem(img_amb, tuple(random_quad(rng, d) for d in img_amb.ds))
                              for _ in range(m)]
            witnesses = [tuple(int(k == i) for k in range(m)) for i in range(m)]
            witnesses += [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(4)]
            verdict = order_embedding_check(sources, images, witnesses)
            assert (verdict.status, verdict.witness) == self.reference(sources, images, witnesses)
            statuses[verdict.status] += 1
        assert min(statuses.values()) >= 30, statuses


def kernel_first_check(sources, images, witnesses):
    """order_embedding_check as it was before it compared ranks: the
    source kernel is always built, and each relation's image signed."""
    if len(sources) != len(images):
        raise ValueError("sources and images must have equal length")

    def common(elems):
        if not elems:
            return [], ()
        group = Subgroup(elems[0].ambient, elems)
        return group.rows, group.ambient.ds

    src_rows, src_ds = common(sources)
    img_rows, img_ds = common(images)
    for rel in lattice.row_kernel(src_rows):
        if combination_sign(img_rows, rel, img_ds):
            return "ill_defined", tuple(rel)
    for w in witnesses:
        if combination_sign(src_rows, w, src_ds) != combination_sign(img_rows, w, img_ds):
            return "order_violated", tuple(w)
    return "ok", None


def embedding_inputs(rng):
    """Seeded (sources, images, witnesses): homomorphic images of integer
    combinations (relations that map to zero), the same with one image
    moved (a relation that does not), zero source values, and empty lists;
    the witnesses are unit vectors and pairwise differences, as goodify's."""
    yield [], [], []
    for case in range(400):
        src_amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))
        img_amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))
        r, m = rng.randint(1, 3), rng.randint(1, 6)
        coeffs = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(m)]

        def elems(amb):
            return [GroupElem(amb, tuple(random_quad(rng, d) for d in amb.ds)) for _ in range(r)]

        sources = [combine(elems(src_amb), row, src_amb) for row in coeffs]
        images = [combine(elems(img_amb), row, img_amb) for row in coeffs]
        if case % 3 == 1:
            # move one image off the homomorphism: ill defined whenever the
            # moved source takes part in a relation
            i = rng.randrange(m)
            images[i] = images[i] + GroupElem(img_amb, tuple(random_quad(rng, d) for d in img_amb.ds))
        if case % 5 == 2:
            sources[rng.randrange(m)] = src_amb.zero()
        witnesses = [tuple(int(k == i) for k in range(m)) for i in range(m)]
        witnesses += [tuple(int(k == i) - int(k == j) for k in range(m))
                      for i in range(m) for j in range(i + 1, m)]
        yield sources, images, witnesses


class TestRankFirstEmbedding:
    def test_matches_the_kernel_first_form(self):
        rng = random.Random(29)
        statuses = {"ok": 0, "ill_defined": 0, "order_violated": 0}
        zero_sources = 0
        for sources, images, witnesses in embedding_inputs(rng):
            verdict = order_embedding_check(sources, images, witnesses)
            assert (verdict.status, verdict.witness) == kernel_first_check(sources, images, witnesses)
            statuses[verdict.status] += 1
            zero_sources += any(s.is_zero() for s in sources)
        assert min(statuses.values()) >= 30 and zero_sources >= 30, (statuses, zero_sources)

    def test_a_well_defined_check_builds_no_kernel(self, monkeypatch):
        """The ranks decide well-definedness: row_kernel runs exactly when
        the verdict is ill_defined, once, to name the witness."""
        import placeforge.ordgroup as ordgroup

        calls = []
        row_kernel = lattice.row_kernel

        def counted(rows):
            calls.append(rows)
            return row_kernel(rows)

        monkeypatch.setattr(ordgroup.lattice, "row_kernel", counted)
        rng = random.Random(31)
        for sources, images, witnesses in embedding_inputs(rng):
            calls.clear()
            verdict = order_embedding_check(sources, images, witnesses)
            assert len(calls) == (verdict.status == "ill_defined")


def test_json_round_trip_bit_exact():
    # a subgroup travels as its generators' coordinate lists
    amb = AmbientGroup((2, 3))
    g1 = GroupElem(amb, (quad(1, 0), QuadScalar(Fraction(-7, 3), Fraction(2, 5), 3)))
    g2 = GroupElem(amb, (quad(0, 1), QuadScalar(Fraction(0), Fraction(1), 3)))
    s = Subgroup(amb, (g1, g2))
    blob = json.dumps([g.to_json() for g in s.generators], sort_keys=True)
    rows, den = rows_from_json(json.loads(blob), amb)
    back = Subgroup.from_rows(amb, rows, den)
    assert back == s
    assert json.dumps([g.to_json() for g in back.generators], sort_keys=True) == blob


def test_sample_group_json_shape():
    amb = AmbientGroup((2,))
    s = Subgroup(amb, (amb.elem(1),))
    assert amb.to_json() == {"levels": [{"d": 2}]}
    assert [g.to_json() for g in s.generators] == [[{"a": "1", "b": "0"}]]


def test_sqrt_convergents():
    # classical convergents of sqrt(2): 1, 3/2, 7/5, 17/12, ...
    convs = sqrt_convergents(2)
    assert [next(convs) for _ in range(4)] == [(1, 1), (3, 2), (7, 5), (17, 12)]
    for d in (2, 3, 5, 7, 11):
        c = next(Fraction(p, q) for p, q in sqrt_convergents(d) if q >= 1000)
        assert abs(c * c - d) < Fraction(1, 1000)


@pytest.mark.parametrize("d", [12, 1, MAX_RADICAND + 3])
def test_radicand_is_checked(d):
    message = "MAX_RADICAND" if d > MAX_RADICAND else "squarefree"
    with pytest.raises(ValueError, match=message):
        AmbientGroup((2, d))
    with pytest.raises(ValueError, match=message):
        QuadScalar.rational(1, d)


def test_literal_budget():
    assert rat_from_str("-3/4") == Fraction(-3, 4)
    assert rat_from_str("7" * MAX_LITERAL_DIGITS) == int("7" * MAX_LITERAL_DIGITS)
    # a sign and a slash are not digits
    threes = "3" * (MAX_LITERAL_DIGITS - 1)
    assert rat_from_str("-1/" + threes) == Fraction(-1, int(threes))
    for text in ("7" * (MAX_LITERAL_DIGITS + 1), "-1/" + "3" * MAX_LITERAL_DIGITS,
                 "1/" + "3" * 5000):
        with pytest.raises(ValueError, match="MAX_LITERAL_DIGITS"):
            rat_from_str(text)
    # an exponent is off the grammar, however few digits it spells
    for text in ("1.5e3", "1e-3", f"1e{MAX_LITERAL_DIGITS}", "1e100000000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="is not of the form n or n/d"):
            rat_from_str(text)


# Inputs at the edge of the schema's literal form: zero denominators,
# signs, spaces, newlines, separators, exponents, other scripts' digits.
_LITERAL_EDGES = (
    "1/0", "-1/0", "0/0", "-0/0", "1/00", "--3", "3/", "/4", "3/-4", "3//4", "-", "", "/",
    "+3", "+3/4", "-+3", " 3", "3 ", "3 /4", "\t-3/4\n", "3\n", "3/4\n", "1_000", "1__0", "_1",
    "1_/2", "1e3", "1E-2", "2.5e+1", "1e_3", "1/2e3", ".5", "5.", "1.5/2",
    "\u0663", "-\u0663/\u0664", "\uff13", "3\u0664", "\u00b2", "inf", "nan", "0x10",
    "1/007", "-0", "007",
)

_RAT_SCHEMA = json.loads(
    (pathlib.Path(placeforge.__file__).parent / "schemas" / "place.schema.json").read_text()
)["$defs"]["rat"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.sampled_from(_LITERAL_EDGES),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(), st.integers(min_value=0)),
    st.integers().map(str),
    st.text(alphabet="0123456789-+/_ .eE\t\n\u0663\u0664\uff13", max_size=12),
))
def test_rat_from_str_accepts_the_schema_literals(text):
    """rat_from_str accepts exactly the literals the shipped place schema
    accepts, with Fraction's value; every other literal is refused by name."""
    if jsonschema.Draft202012Validator(_RAT_SCHEMA).is_valid(text):
        assert rat_from_str(text) == Fraction(text)
    else:
        with pytest.raises(ValueError, match="is not of the form n or n/d"):
            rat_from_str(text)


def test_elem_radicand_must_match_its_level():
    with pytest.raises(ValueError, match="radicand does not match level"):
        GroupElem(AmbientGroup((2, 3)), (quad(1, 1), quad(0, 1)))
    with pytest.raises(ValueError, match="radicand does not match level"):
        AMB2.elem(1, QuadScalar.sqrt(3))


def fraction_pairs(e):
    """A group element as per-level (a, b) Fractions, read off its stored
    integer row and denominator."""
    return tuple((Fraction(e.row[i], e.den), Fraction(e.row[i + 1], e.den))
                 for i in range(0, len(e.row), 2))


def reference_sign(pairs, ds):
    """Lexicographic sign by squaring, on Fractions."""
    for (a, b), d in zip(pairs, ds):
        if a == b == 0:
            continue
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        return (1 if a > 0 else -1) if a * a > b * b * d else (1 if b > 0 else -1)
    return 0


def test_row_elements_match_a_fraction_reference():
    """Row-backed arithmetic against per-level Fraction pairs: sums,
    differences, negation, rational scaling, signs, and equality and hashing
    between elements built from scalars and from rescaled rows."""
    rng = random.Random(23)
    for _ in range(300):
        amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))

        def draw():
            span = rng.choice([1, 3, 12])
            return tuple((Fraction(rng.randint(-9, 9), rng.randint(1, span)),
                          Fraction(rng.randint(-9, 9), rng.randint(1, span)) if rng.random() < 0.7
                          else Fraction(0))
                         for _ in amb.ds)

        xp, yp = draw(), draw()
        x = GroupElem(amb, tuple(QuadScalar(a, b, d) for (a, b), d in zip(xp, amb.ds)))
        y = GroupElem(amb, tuple(QuadScalar(a, b, d) for (a, b), d in zip(yp, amb.ds)))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        cases = [
            (x, xp),
            (x + y, tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(xp, yp))),
            (x - y, tuple((a1 - a2, b1 - b2) for (a1, b1), (a2, b2) in zip(xp, yp))),
            (-x, tuple((-a, -b) for a, b in xp)),
            (scale(x, c), tuple((c * a, c * b) for a, b in xp)),
            (scale(y, rng.randint(-3, 3)), None),
        ]
        for e, want in cases:
            assert e.den > 0 and gcd(e.den, *e.row) == 1
            if want is not None:
                assert fraction_pairs(e) == want
            assert e.sign() == reference_sign(fraction_pairs(e), amb.ds) == elem_sign(e)
            assert e.is_zero() == (e.sign() == 0)
            k = rng.randint(2, 6)
            rescaled = GroupElem.from_row(amb, [k * v for v in e.row], k * e.den)
            assert rescaled == e and hash(rescaled) == hash(e)
            assert GroupElem(amb, e.coords) == e
        assert (x - y).sign() == reference_sign(fraction_pairs(x - y), amb.ds)


def test_combine_equals_the_scaled_fold():
    """combine, one alignment of rows, equals the fold of `scale` and `+`
    over 1-3 levels with mixed denominators, zero coefficients and the
    empty list; an element of another ambient is refused even when the
    rest of the list would combine."""
    rng = random.Random(29)
    for _ in range(200):
        amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))
        elems = [GroupElem(amb, tuple(random_quad(rng, d, span=rng.choice([1, 4, 9]),
                                                  irrational=rng.random() < 0.7)
                                      for d in amb.ds))
                 for _ in range(rng.randint(0, 4))]
        coeffs = [rng.choice([0, 0, 1, -1, rng.randint(-7, 7)]) for _ in elems]
        got = combine(elems, coeffs, amb)
        want = sum((scale(e, c) for e, c in zip(elems, coeffs)), amb.zero())
        assert got == want and got.den > 0 and gcd(got.den, *got.row) == 1
    assert combine([], [], AMB2) == AMB2.zero()
    assert combine([AMB2.elem(1, 2)], [0], AMB2) == AMB2.zero()
    with pytest.raises(ValueError, match="^elements live in different ambient groups$"):
        combine([AMB2.elem(1, 2), AMB.elem(Fraction(1, 3))], [1, 2], AMB2)
    with pytest.raises(ValueError, match="^elements live in different ambient groups$"):
        combine([AMB.elem(1)], [3], AMB2)


def golden_reports():
    tests = pathlib.Path(__file__).resolve().parent
    return [tests / "golden" / job.name for job in sorted((tests / "jobs").glob("*.json"))]


def golden_group_values():
    """(ambient, JSON element) for every group element a golden report
    holds: monomial weights at every tower level, values and iota entries.
    The golden reports are those of the jobs in tests/jobs; tests/golden
    also holds the digest file of tests/test_digests.py."""
    for path in golden_reports():
        report = json.loads(path.read_text())
        stack = [report["place"]]
        while stack:
            place = stack.pop()
            if place["kind"] == "composite":
                stack += [place["inner"], place["outer"]]
                continue
            amb = AmbientGroup.from_json(place["ambient"])
            for w in place["weights"]:
                yield path.name, amb, w
        if report["command"] == "value":
            amb = place_from_json(report["place"]).ambient
            for r in report["results"]:
                if r["value"] != "infinity":
                    yield path.name, amb, r["value"]
        iota = report.get("iota")
        if iota:
            for side, levels in (("sources", "source_levels"), ("images", "image_levels")):
                amb = AmbientGroup.from_json({"levels": iota[levels]}) if iota[side] else None
                for v in iota[side]:
                    yield path.name, amb, v


def test_golden_values_round_trip_bit_exact():
    seen = set()
    for name, amb, obj in golden_group_values():
        blob = json.dumps(obj, sort_keys=True)
        (row,), den = rows_from_json([obj], amb)
        elem = GroupElem.from_row(amb, row, den)
        assert json.dumps(elem.to_json(), sort_keys=True) == blob, name
        assert rows_from_json([elem.to_json()], amb) == ([elem.row], elem.den)
        seen.add(name)
    assert len(seen) == len(golden_reports())
