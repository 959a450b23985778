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
    combine,
    quad_sign_int,
    rat_from_str,
    sqrt_convergents,
)

from gen import random_pair
from oracles import (
    elem,
    elem_add,
    elem_sign,
    elem_sub,
    fraction_rank,
    from_pairs,
    pairs,
    qvec,
    scale,
)

AMB = AmbientGroup((2,))
AMB2 = AmbientGroup((2, 2))

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def quad_sign(a, b, d=2):
    """Sign of a + b*sqrt(d): that of the one-level group element."""
    return elem(AmbientGroup((d,)), (a, b)).sign()


def subgroup(ambient, gens):
    """The subgroup generated by the elements `gens`: their rows over one
    denominator."""
    return Subgroup.from_rows(ambient, *align_rows((g.row, g.den) for g in gens))


def random_elem(rng, amb):
    return from_pairs(amb, [random_pair(rng) for _ in amb.ds])


def linear_combination(elems, coeffs, ambient):
    """sum_k coeffs[k] * elems[k], folded with the oracle's arithmetic."""
    total = elem(ambient, *[0] * ambient.num_levels)
    for g, c in zip(elems, coeffs):
        total = elem_add(total, scale(g, c))
    return total


class TestQuadSign:
    def test_rational_case(self):
        assert quad_sign(1, 0) == 1

    def test_mixed_signs(self):
        assert quad_sign(3, -2) == 1  # 9 > 8
        assert quad_sign(-3, 2) == -1

    def test_zero(self):
        assert quad_sign(0, 0) == 0

    @given(a=fractions_st, b=fractions_st, d=st.sampled_from([2, 3, 5, 7]))
    def test_negation_and_zero_rule(self, a, b, d):
        assert quad_sign(-a, -b, d) == -quad_sign(a, b, d)
        assert (quad_sign(a, b, d) == 0) == (a == 0 and b == 0)

    @given(a=fractions_st, b=fractions_st, d=st.sampled_from([2, 3, 5, 7]))
    def test_against_interval_oracle(self, a, b, d):
        e = elem(AmbientGroup((d,)), (a, b))
        assert e.sign() == elem_sign(e)


class TestElemOrder:
    def test_lex_dominance(self):
        assert elem(AMB2, 1, -5).sign() == 1

    def test_one_vs_sqrt2(self):
        assert elem(AMB, (1, -1)).sign() == -1

    def test_equal(self):
        assert elem(AMB2, 0, 0).sign() == 0

    @given(st.lists(st.tuples(fractions_st, fractions_st, fractions_st, fractions_st),
                    min_size=3, max_size=3))
    def test_total_order_on_triples(self, rows):
        """The order x <= y iff sign(y - x) >= 0, with the differences taken
        by the oracle and signed by the library, is a translation-invariant
        total order."""
        x, y, z = (elem(AMB2, (a, b), (c, d)) for a, b, c, d in rows)
        sign = lambda u, v: elem_sub(u, v).sign()  # noqa: E731
        # antisymmetry
        assert sign(x, y) == -sign(y, x)
        # transitivity
        if sign(x, y) <= 0 and sign(y, z) <= 0:
            assert sign(x, z) <= 0
        # translation invariance
        assert sign(x, y) == sign(elem_add(x, z), elem_add(y, z))


class TestRationalRank:
    def test_one_and_sqrt2(self):
        assert rational_rank(Subgroup.from_rows(AMB, [(1, 0), (0, 1)])) == 2

    def test_two_and_three(self):
        assert rational_rank(Subgroup.from_rows(AMB, [(2, 0), (3, 0)])) == 1

    def test_empty(self):
        assert rational_rank(Subgroup.from_rows(AMB, [])) == 0

    def test_bounds_and_span_stability(self):
        rng = random.Random(9)
        for _ in range(100):
            rows = [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(rng.randint(0, 4))]
            rk = rational_rank(Subgroup.from_rows(AMB2, rows))
            assert rk <= len(rows)
            assert rk <= 2 * AMB2.num_levels
            if rows:
                doubled = rows + [tuple(a + b for a, b in zip(rows[0], rows[-1]))]
                assert rational_rank(Subgroup.from_rows(AMB2, doubled)) == rk
            assert rk == fraction_rank(rows) if rows else rk == 0

    def test_both_ranks_share_one_rank_profile(self, monkeypatch):
        """rational_rank and convex_rank on one Subgroup eliminate its rows
        once, in either order and however often they are asked."""
        calls = []
        rank_profile = lattice.rank_profile
        monkeypatch.setattr(lattice, "rank_profile",
                            lambda rows: calls.append(rows) or rank_profile(rows))
        # the generators 1, sqrt(2) + 5*eps and 3*eps, for eps on level 2
        rows = [(1, 0, 0, 0), (0, 1, 5, 0), (0, 0, 3, 0)]
        for first, second in ((rational_rank, convex_rank), (convex_rank, rational_rank)):
            s = Subgroup.from_rows(AMB2, rows)
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
        assert member(Subgroup.from_rows(AMB, [(2, 0), (3, 0)]), elem(AMB, 5))

    def test_sqrt2_not_in_one(self):
        assert not member(Subgroup.from_rows(AMB, [(1, 0)]), elem(AMB, (0, 1)))

    def test_third_not_in_one(self):
        # the denominators count: 1/3 is in the span of 1 but not in <1>
        assert not member(Subgroup.from_rows(AMB, [(1, 0)]), elem(AMB, Fraction(1, 3)))
        assert member(Subgroup.from_rows(AMB, [(2, 0), (3, 0)], 3), elem(AMB, Fraction(1, 3)))

    def test_zero_always(self):
        assert member(Subgroup.from_rows(AMB, []), elem(AMB, 0))
        assert member(Subgroup.from_rows(AMB, [(7, 0)]), elem(AMB, 0))

    def test_combinations_are_members(self):
        rng = random.Random(12)
        for _ in range(40):
            gens = [random_elem(rng, AMB2) for _ in range(rng.randint(1, 3))]
            s = subgroup(AMB2, gens)
            coeffs = [rng.randint(-4, 4) for _ in gens]
            assert member(s, combine(gens, coeffs, AMB2))
            assert member(s, linear_combination(gens, coeffs, AMB2))

    def test_unimodular_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            g1 = elem(AMB2, rng.randint(-3, 3), rng.randint(-3, 3))
            g2 = elem(AMB2, rng.randint(-3, 3), rng.randint(-3, 3))
            x = elem(AMB2, rng.randint(-6, 6), rng.randint(-6, 6))
            c = rng.randint(-3, 3)
            s1 = subgroup(AMB2, (g1, g2))
            s2 = subgroup(AMB2, (elem_add(g1, scale(g2, c)), g2))
            assert member(s1, x) == member(s2, x)
            # the HNF basis is the canonical form of the subgroup
            assert s1.den == s2.den and lattice.hnf(s1.rows) == lattice.hnf(s2.rows)


class TestConvexRank:
    def test_lex_units(self):
        assert convex_rank(Subgroup.from_rows(AMB2, [(1, 0, 0, 0), (0, 0, 1, 0)])) == 2

    def test_one_archimedean_level(self):
        assert convex_rank(Subgroup.from_rows(AMB, [(1, 0), (0, 1)])) == 1

    def test_trivial(self):
        assert convex_rank(Subgroup.from_rows(AMB, [(0, 0)])) == 0

    def test_at_most_rational_rank(self):
        rng = random.Random(13)
        for _ in range(100):
            rows = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(rng.randint(0, 3))]
            s = Subgroup.from_rows(AMB2, rows)
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
            gens.append(from_pairs(amb, [
                (0, 0) if lv in zero_levels
                else random_pair(rng, span=2, irrational=rng.random() < 0.6)
                for lv in range(levels)
            ]))
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
        gens = [elem(amb, ints[i], *(int(i == c) for c in cols)) for i in range(n)]
        yield amb, gens


def test_ranks_match_prefix_fraction_ranks():
    rng = random.Random(71)
    seen = set()
    for amb, gens in seeded_subgroups(rng):
        s = subgroup(amb, gens)
        want = reference_ranks(gens, amb.num_levels)
        assert (rational_rank(s), convex_rank(s)) == want
        seen.add(want)
    # the seeds reach ranks well past one level and one jump
    assert max(rr for rr, _ in seen) >= 6 and max(rank for _, rank in seen) >= 5


def test_subgroup_rows_are_in_lowest_terms():
    s = Subgroup.from_rows(AMB2, [(6, 0, 0, 4), (12, 0, 0, 0)], 12)
    assert s.den == 6
    assert s.rows == ((3, 0, 0, 2), (6, 0, 0, 0))
    assert s == Subgroup.from_rows(AMB2, s.rows, s.den)
    assert Subgroup.from_rows(AMB, []).rows == ()


def test_subgroup_rows_given_as_lists_become_tuples():
    """Rows given as lists are stored as tuples, whether the gcd divides
    them out (above 1) or leaves them as they are (1)."""
    reduced = Subgroup.from_rows(AMB2, [[6, 0, 0, 4], [12, 0, 0, 0]], 12)
    assert (reduced.rows, reduced.den) == (((3, 0, 0, 2), (6, 0, 0, 0)), 6)
    rows = [[1, 0, 0, 4], [12, 0, 0, 0]]
    kept = Subgroup.from_rows(AMB2, rows, 12)
    assert (kept.rows, kept.den) == (((1, 0, 0, 4), (12, 0, 0, 0)), 12)
    for s in (reduced, kept):
        assert all(type(r) is tuple for r in s.rows)
        assert s == Subgroup.from_rows(AMB2, s.rows, s.den)
        assert hash(s) == hash(Subgroup.from_rows(AMB2, s.rows, s.den))
    rows[0][0] = 5  # the subgroup holds no list of the caller's
    assert kept.rows[0] == (1, 0, 0, 4)
    with pytest.raises(TypeError):
        Subgroup.from_rows(AMB, [[1.5, 0]])


class TestOrderEmbedding:
    def test_doubling(self):
        v = order_embedding_check([elem(AMB, 1)], [elem(AMB, 2)], [(1,)])
        assert v.ok

    def test_mixed_targets(self):
        src = [elem(AMB, 1), elem(AMB, (2, -1))]
        img = [elem(AMB, 2), elem(AMB, 1)]
        v = order_embedding_check(src, img, [(1, 0), (0, 1), (-1, 1)])
        assert v.ok

    def test_positive_to_zero(self):
        v = order_embedding_check([elem(AMB, 1)], [elem(AMB, 0)], [(1,)])
        assert v.status == "order_violated" and v.witness == (1,)

    def test_ill_defined(self):
        src = [elem(AMB, 1), elem(AMB, 2)]
        img = [elem(AMB, 1), elem(AMB, 3)]
        v = order_embedding_check(src, img, [])
        assert v.status == "ill_defined"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            order_embedding_check([elem(AMB, 1)], [], [])

    def test_mixed_ambients_rejected(self):
        with pytest.raises(ValueError, match="^generator outside the ambient group$"):
            order_embedding_check([elem(AMB, 1), elem(AMB2, 1, 0)], [elem(AMB, 1)] * 2, [])

    @staticmethod
    def reference(sources, images, witnesses):
        """The check on group elements, combined by the oracle's arithmetic
        and signed by the interval oracle."""
        rows, _ = lattice.clear_denominators(
            [[(q.numerator, q.denominator) for q in qvec(s)] for s in sources])
        for rel in lattice.row_kernel(rows):
            if elem_sign(linear_combination(images, rel, images[0].ambient)):
                return "ill_defined", tuple(rel)
        for w in witnesses:
            src = linear_combination(sources, w, sources[0].ambient)
            img = linear_combination(images, w, images[0].ambient)
            if elem_sign(src) != elem_sign(img):
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
                return [random_elem(rng, amb) for _ in range(r)]

            sources = [combine(elems(src_amb), row, src_amb) for row in coeffs]
            kind = rng.choice(["hom", "embed", "random"])
            if kind == "embed":
                img_amb = AmbientGroup(src_amb.ds + (rng.choice([2, 3]),))
                images = [from_pairs(img_amb, pairs(s) + (random_pair(rng),)) for s in sources]
            else:
                img_amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))
                if kind == "hom":
                    images = [combine(elems(img_amb), row, img_amb) for row in coeffs]
                else:
                    images = [random_elem(rng, img_amb) for _ in range(m)]
            witnesses = [tuple(int(k == i) for k in range(m)) for i in range(m)]
            witnesses += [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(4)]
            verdict = order_embedding_check(sources, images, witnesses)
            assert (verdict.status, verdict.witness) == self.reference(sources, images, witnesses)
            statuses[verdict.status] += 1
        assert min(statuses.values()) >= 30, statuses


def combination_sign(rows, coeffs, ds):
    """Lexicographic sign of sum_k coeffs[k] * rows[k], level by level: the
    form order_embedding_check signed combinations with before it took
    `row_sign` of the summed row."""
    terms = [(c, row) for row, c in zip(rows, coeffs) if c]
    for lv, d in enumerate(ds):
        a = sum(c * row[2 * lv] for c, row in terms)
        b = sum(c * row[2 * lv + 1] for c, row in terms)
        s = quad_sign_int(a, b, d)
        if s:
            return s
    return 0


def kernel_first_check(sources, images, witnesses):
    """order_embedding_check as it was before it compared ranks: the
    source kernel is always built, and each relation's image signed."""
    if len(sources) != len(images):
        raise ValueError("sources and images must have equal length")

    def common(elems):
        if not elems:
            return [], ()
        return subgroup(elems[0].ambient, elems).rows, elems[0].ambient.ds

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
            return [random_elem(rng, amb) for _ in range(r)]

        sources = [combine(elems(src_amb), row, src_amb) for row in coeffs]
        images = [combine(elems(img_amb), row, img_amb) for row in coeffs]
        if case % 3 == 1:
            # move one image off the homomorphism: ill defined whenever the
            # moved source takes part in a relation
            i = rng.randrange(m)
            images[i] = elem_add(images[i], random_elem(rng, img_amb))
        if case % 5 == 2:
            sources[rng.randrange(m)] = elem(src_amb, *[0] * src_amb.num_levels)
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
            zero_sources += any(not any(s.row) for s in sources)
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


def decoded_rows(amb, objs):
    """The integer rows over one denominator that place_from_json reads
    from the JSON elements `objs`, as the weights of a monomial place."""
    place = place_from_json({"kind": "monomial", "base": "Q", "arity": len(objs),
                             "ambient": amb.to_json(), "weights": objs})
    return align_rows((w.row, w.den) for w in place.weights)


def test_json_round_trip_bit_exact():
    # a subgroup travels as its generators' coordinate lists
    amb = AmbientGroup((2, 3))
    # the generators (1, -7/3 + 2/5*sqrt(3)) and (sqrt(2), sqrt(3))
    s = Subgroup.from_rows(amb, [(15, 0, -35, 6), (0, 15, 0, 15)], 15)
    blob = json.dumps([GroupElem.from_row(amb, r, s.den).to_json() for r in s.rows], sort_keys=True)
    rows, den = decoded_rows(amb, json.loads(blob))
    back = Subgroup.from_rows(amb, rows, den)
    assert back == s
    assert json.dumps([GroupElem.from_row(amb, r, back.den).to_json() for r in back.rows],
                      sort_keys=True) == blob


def test_sample_group_json_shape():
    amb = AmbientGroup((2,))
    assert amb.to_json() == {"levels": [{"d": 2}]}
    assert elem(amb, 1).to_json() == [{"a": "1", "b": "0"}]


def test_sqrt_convergents():
    # classical convergents of sqrt(2): 1, 3/2, 7/5, 17/12, ...
    convs = sqrt_convergents(2)
    assert [next(convs) for _ in range(4)] == [(1, 1), (3, 2), (7, 5), (17, 12)]
    for d in (2, 3, 5, 7, 11):
        c = next(Fraction(p, q) for p, q in sqrt_convergents(d) if q >= 1000)
        assert abs(c * c - d) < Fraction(1, 1000)


_MONOMIAL = {"kind": "monomial", "base": "Q", "arity": 1,
             "ambient": {"levels": [{"d": 2}]}, "weights": [[{"a": "1", "b": "0"}]]}


# Radicands the schema refuses, or that only jsonschema's "integer" admits:
# a float is not an int here, and neither is a bool.
@pytest.mark.parametrize("d", [12, 1, MAX_RADICAND + 3, 2.5, 3.0, True, "3"])
def test_radicand_is_checked(d):
    message = "MAX_RADICAND" if d == MAX_RADICAND + 3 else "squarefree"
    with pytest.raises(ValueError, match=message):
        AmbientGroup((2, d))
    with pytest.raises(ValueError, match=message):
        QuadScalar(Fraction(1), Fraction(0), d)
    with pytest.raises(ValueError, match=message):
        place_from_json({**_MONOMIAL, "ambient": {"levels": [{"d": d}]}})


@pytest.mark.parametrize("key, value", [
    ("base", 7.9), ("base", {"p": 7.9}), ("base", {"p": "7"}), ("base", "7"), ("base", [7]),
    ("base", {"p": 7.0}), ("base", {"p": 0}), ("base", {"p": 7, "q": 1}), ("base", True),
    ("arity", True), ("arity", 1.0), ("arity", -1), ("arity", "1"),
    ("weights", [[{"a": 1, "b": "0"}]]), ("weights", [[{"a": "1", "b": 0.5}]]),
])
def test_place_decoding_refuses_malformed_fields(key, value):
    """place_from_json, the only check a place gets from the CLI and from
    library callers alike, refuses each of these with a one-line ValueError."""
    with pytest.raises(ValueError) as info:
        place_from_json({**_MONOMIAL, key: value})
    assert "\n" not in str(info.value)


def test_literal_budget():
    assert rat_from_str("-3/4") == (-3, 4)
    assert rat_from_str("-6/8") == (-3, 4)  # in lowest terms
    assert rat_from_str("0/5") == (0, 1)
    assert rat_from_str("7" * MAX_LITERAL_DIGITS) == (int("7" * MAX_LITERAL_DIGITS), 1)
    # a sign and a slash are not digits
    threes = "3" * (MAX_LITERAL_DIGITS - 1)
    assert rat_from_str("-1/" + threes) == (-1, int(threes))
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
    accepts, with Fraction's value in lowest terms; every other literal is
    refused by name."""
    if jsonschema.Draft202012Validator(_RAT_SCHEMA).is_valid(text):
        value = Fraction(text)
        assert rat_from_str(text) == (value.numerator, value.denominator)
    else:
        with pytest.raises(ValueError, match="is not of the form n or n/d"):
            rat_from_str(text)


def reference_sign(vec, ds):
    """Lexicographic sign by squaring, on per-level (a, b) Fractions."""
    for (a, b), d in zip(vec, ds):
        if a == b == 0:
            continue
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        return (1 if a > 0 else -1) if a * a > b * b * d else (1 if b > 0 else -1)
    return 0


def test_row_elements_match_a_fraction_reference():
    """Elements built from rows against per-level Fraction pairs: each of
    x, y, x + y, x - y, -x and c*x, computed on the pairs and built with
    `from_row`, reads back its pairs and scalars in lowest terms, signs as
    the squaring and interval references do, and equals and hashes as the
    same element built from a rescaled row."""
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
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        cases = [
            xp,
            yp,
            tuple((a1 + a2, b1 + b2) for (a1, b1), (a2, b2) in zip(xp, yp)),
            tuple((a1 - a2, b1 - b2) for (a1, b1), (a2, b2) in zip(xp, yp)),
            tuple((-a, -b) for a, b in xp),
            tuple((c * a, c * b) for a, b in xp),
        ]
        for want in cases:
            e = from_pairs(amb, want)
            assert e.den > 0 and gcd(e.den, *e.row) == 1
            assert pairs(e) == want
            assert [(q.a, q.b, q.d) for q in e.coords] == [(a, b, d) for (a, b), d in zip(want, amb.ds)]
            assert e.sign() == reference_sign(want, amb.ds) == elem_sign(e)
            k = rng.randint(2, 6)
            rescaled = GroupElem.from_row(amb, [k * v for v in e.row], k * e.den)
            assert rescaled == e and hash(rescaled) == hash(e)


def quad_scalar_str(a, b, d):
    """One level as QuadScalar printed it, for Fractions a and b."""
    if b == 0:
        return str(a)
    tail = f"{b}*sqrt({d})"
    if a == 0:
        return tail
    op = "+" if b > 0 else "-"
    return f"{a} {op} {abs(b)}*sqrt({d})"


def test_printing_matches_the_quad_scalar_rendering():
    """str of an element, printed from its row and denominator, is the text
    it had when each level was printed as a QuadScalar of Fractions: seeded
    rows of 1-3 levels with zero a, zero b and negative b, small and large
    entries, and denominators above 1."""
    rng = random.Random(41)
    seen = set()
    for _ in range(600):
        ds = tuple(rng.choice([2, 3, 5, 7]) for _ in range(rng.randint(1, 3)))
        row = [rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-10**20, 10**20)])
               for _ in range(2 * len(ds))]
        e = GroupElem.from_row(AmbientGroup(ds), row, rng.choice([1, 1, 2, 6, 35, 10**12]))
        levels = [quad_scalar_str(Fraction(a, e.den), Fraction(b, e.den), d)
                  for a, b, d in zip(e.row[::2], e.row[1::2], ds)]
        want = levels[0] if len(levels) == 1 else "(" + ", ".join(levels) + ")"
        assert str(e) == want
        for a, b in zip(e.row[::2], e.row[1::2]):
            seen.add(("a" if a else "") + ("b" if b else "") + ("-" if b < 0 else ""))
        seen.add(f"levels {len(ds)}")
        seen.add("den > 1" if e.den > 1 else "den 1")
    assert seen == {"", "a", "b", "b-", "ab", "ab-", "levels 1", "levels 2", "levels 3",
                    "den 1", "den > 1"}


@pytest.mark.parametrize("den", [0, -1, 2.0, True], ids=repr)
def test_a_denominator_that_is_not_a_positive_int_is_refused(den):
    """from_row and from_rows take a positive int denominator only: -1
    would flip every printed sign but no computed one, and 0 would fail
    only when printed."""
    for build, rows in ((GroupElem.from_row, (1, 0)), (Subgroup.from_rows, [(1, 0)])):
        with pytest.raises(ValueError, match=r"^denominator must be a positive int, got .*$"):
            build(AMB, rows, den)


def test_combine_equals_the_scaled_fold():
    """combine, one alignment of rows, equals the fold of the oracle's
    scaling and addition over 1-3 levels with mixed denominators, zero
    coefficients and the empty list; an element of another ambient is
    refused even when the rest of the list would combine."""
    rng = random.Random(29)
    for _ in range(200):
        amb = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(rng.randint(1, 3))))
        elems = [from_pairs(amb, [random_pair(rng, span=rng.choice([1, 4, 9]),
                                              irrational=rng.random() < 0.7)
                                  for _ in amb.ds])
                 for _ in range(rng.randint(0, 4))]
        coeffs = [rng.choice([0, 0, 1, -1, rng.randint(-7, 7)]) for _ in elems]
        got = combine(elems, coeffs, amb)
        assert got == linear_combination(elems, coeffs, amb)
        assert got.den > 0 and gcd(got.den, *got.row) == 1
    zero = elem(AMB2, 0, 0)
    assert combine([], [], AMB2) == zero
    assert combine([elem(AMB2, 1, 2)], [0], AMB2) == zero
    with pytest.raises(ValueError, match="^elements live in different ambient groups$"):
        combine([elem(AMB2, 1, 2), elem(AMB, Fraction(1, 3))], [1, 2], AMB2)
    with pytest.raises(ValueError, match="^elements live in different ambient groups$"):
        combine([elem(AMB, 1)], [3], AMB2)


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
            amb = AmbientGroup(tuple(lv["d"] for lv in place["ambient"]["levels"]))
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
                amb = AmbientGroup(tuple(lv["d"] for lv in iota[levels])) if iota[side] else None
                for v in iota[side]:
                    yield path.name, amb, v


def test_golden_values_round_trip_bit_exact():
    seen = set()
    for name, amb, obj in golden_group_values():
        blob = json.dumps(obj, sort_keys=True)
        (row,), den = decoded_rows(amb, [obj])
        elem = GroupElem.from_row(amb, row, den)
        assert json.dumps(elem.to_json(), sort_keys=True) == blob, name
        assert decoded_rows(amb, [elem.to_json()]) == ([elem.row], elem.den)
        seen.add(name)
    assert len(seen) == len(golden_reports())
