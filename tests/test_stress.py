"""Cross-cutting stress tests: multi-level lexicographic inputs, small
characteristics, degenerate arities, and broad fuzzing of the replacement
engine against its full contract."""

import random

import pytest

from placeforge import (
    AmbientGroup,
    BaseField,
    InfeasibleShapeError,
    MonomialPlace,
    RatFunc,
    TargetShape,
    goodify,
    parse_expr,
    signature,
)
from placeforge.approx import SignatureError

from gen import (
    random_monomial_place,
    random_place,
    random_ratfunc,
)
from oracles import elem, elem_add

QQ = BaseField(0)
F2 = BaseField(2)
F5 = BaseField(5)


class TestLexInputPerturbation:
    """Sign conditions decided only at deeper lexicographic levels must
    survive the level-collapse refinement."""

    def test_tie_broken_at_second_level(self):
        amb = AmbientGroup((2, 2))
        place = MonomialPlace(QQ, 2, amb, [(1, 0, 0, 0), (1, 0, 1, 0)])
        f = parse_expr("x1 + x2", 2, QQ)
        sig = signature(place, [f])
        assert ((1, -1), -1) in sig.entries  # decided at level 2
        result = goodify(place, [f], TargetShape("preserve_residues", "discrete"))
        assert result.place.monomial_value((1, -1)).sign() == -1

    def test_conflicting_level_pressures(self):
        # one sign needs the deep level, another is ruined by weighting it
        # too strongly; only a small enough decay factor satisfies both
        amb = AmbientGroup((2, 2))
        place = MonomialPlace(QQ, 3, amb, [(1, 0, 0, 0), (1, 0, 1, 0), (2, 0, -50, 0)])
        elems = [parse_expr(t, 3, QQ) for t in ("x1 + x2", "x1^2 + x3", "x3")]
        result = goodify(place, elems, TargetShape("preserve_residues", "discrete"))
        sig = signature(place, elems)
        for m, s in sig.entries:
            assert result.place.monomial_value(m).sign() == s

    def test_two_level_sections_invert(self):
        rng = random.Random(31)
        for _ in range(30):
            place = random_monomial_place(rng, QQ, 3, levels=2)
            m = tuple(rng.randint(-3, 3) for _ in range(3))
            v = place.monomial_value(m)
            assert place.monomial_value(place._raw_section(v.row, v.den)) == v

    def test_raw_section_is_additive(self):
        rng = random.Random(32)
        for _ in range(30):
            place = random_monomial_place(rng, rng.choice([QQ, F5]), 3,
                                          levels=rng.choice([1, 2]))
            m1 = tuple(rng.randint(-3, 3) for _ in range(3))
            m2 = tuple(rng.randint(-3, 3) for _ in range(3))
            v1, v2 = place.monomial_value(m1), place.monomial_value(m2)
            total = elem_add(v1, v2)
            lhs = place._raw_section(total.row, total.den)
            rhs = tuple(a + b for a, b in zip(place._raw_section(v1.row, v1.den),
                                              place._raw_section(v2.row, v2.den)))
            assert lhs == rhs


class TestSmallCharacteristic:
    def test_characteristic_two(self):
        f = parse_expr("(x1 + x2)^2", 2, F2)
        g = parse_expr("x1^2 + x2^2", 2, F2)
        assert (f - g).is_zero()
        amb = AmbientGroup((2,))
        place = MonomialPlace(F2, 2, amb, [(1, 0), (0, 1)])
        assert place.value(f) == elem(amb, 2)
        res = goodify(place, [f], TargetShape("preserve_residues", "discrete"))
        assert res.place.invariants().discrete

    def test_inverse_coefficients_mod_two(self):
        f = parse_expr("x1/3", 1, F2)  # 3 = 1 mod 2
        assert f == parse_expr("x1", 1, F2)


class TestDegenerateArity:
    def test_arity_one(self):
        # on a one-variable field the classes coincide: a zero-dimensional
        # discrete place is a prime divisor of maximal rank
        amb = AmbientGroup((2,))
        place = MonomialPlace(QQ, 1, amb, [(1, 0)])
        inv = place.invariants()
        assert inv.dim == 0 and inv.rr == 1
        assert inv.discrete and inv.maximal_rank and inv.prime_divisor and inv.rational
        f = parse_expr("(x1^2 + x1)/x1", 1, QQ)
        assert place.value(f).sign() == 0
        assert place.residue(f) == RatFunc.const(QQ, 0, 1)

    def test_trivial_place_all_variables_free(self):
        place = MonomialPlace(QQ, 2, AmbientGroup((2,)), [(0, 0)] * 2)
        inv = place.invariants()
        assert inv.dim == 2 and inv.rr == 0 and inv.rank == 0
        f = parse_expr("x1 + x2", 2, QQ)
        assert place.value(f).sign() == 0
        # the residue is the element itself, rewritten in the generators
        r = place.residue(f)
        assert r == parse_expr("u1 + u2", 2, QQ, names=("u1", "u2"))

    def test_goodify_from_trivial_place(self):
        place = MonomialPlace(QQ, 2, AmbientGroup((2,)), [(0, 0)] * 2)
        f = parse_expr("x1", 2, QQ)
        res = goodify(place, [f], TargetShape("preserve_residues", "discrete"))
        assert res.place.invariants().discrete
        assert res.place.value(f).sign() == 0  # the sign 0 survives
        assert place.sign_and_initial_form(f)[1] == res.place.sign_and_initial_form(f)[1]

    def test_goodify_from_trivial_place_can_be_impossible(self):
        place = MonomialPlace(QQ, 2, AmbientGroup((2,)), [(0, 0)] * 2)
        elems = [parse_expr(t, 2, QQ) for t in ("x1", "x2", "x1+x2")]
        with pytest.raises(InfeasibleShapeError):
            goodify(place, elems, TargetShape("preserve_residues", "discrete"))


class TestGoodifyFuzz:
    def test_full_contract_on_random_inputs(self):
        rng = random.Random(33)
        shapes = [
            TargetShape("preserve_residues", "discrete"),
            TargetShape("preserve_residues", "weighted_rational", r1=1),
            TargetShape("preserve_residues", "lex_max_rank"),
        ]
        done = 0
        attempts = 0
        while done < 120 and attempts < 600:
            attempts += 1
            field = rng.choice([QQ, F5])
            n = rng.randint(2, 4)
            place = random_place(rng, field, n)
            elems = [
                random_ratfunc(rng, field, n, max_degree=4, max_terms=3, nonzero=True)
                for _ in range(rng.randint(1, 3))
            ]
            shape = shapes[done % 3]
            try:
                result = goodify(place, elems, shape)
            except InfeasibleShapeError:
                continue  # ties vs trivial kernel, collapsed weights, ...
            sig = signature(place, elems)
            for m, s in sig.entries:
                assert result.place.monomial_value(m).sign() == s
            for f in elems:
                if place.value(f).sign() == 0:
                    assert place.sign_and_initial_form(f)[1] == result.place.sign_and_initial_form(f)[1]
            inv = result.place.invariants()
            if shape.klass == "discrete":
                assert inv.discrete
            elif shape.klass == "weighted_rational":
                assert inv.rr == 1 and inv.rank == 1
            else:
                assert inv.maximal_rank
            done += 1
        assert done >= 60, f"only {done} feasible instances in {attempts} attempts"

    def test_composite_drop_fuzz(self):
        rng = random.Random(34)
        done = 0
        attempts = 0
        while done < 30 and attempts < 300:
            attempts += 1
            field = rng.choice([QQ, F5])
            n = rng.randint(2, 4)
            place = random_monomial_place(rng, field, n, irrational=False)
            inv = place.invariants()
            if inv.dim == 0:
                continue
            elems = []
            for _ in range(rng.randint(1, 2)):
                m = tuple(rng.randint(0, 3) for _ in range(n))
                elems.append(RatFunc.monomial(field, n, m))
            shape = TargetShape("preserve_values", "composite_drop",
                                r1=inv.rr + 1, d1=n - inv.rr - 1)
            try:
                result = goodify(place, elems, shape)
            except InfeasibleShapeError:
                continue
            assert result.iota["verdict"] == "ok"
            tower = result.place
            assert tower.invariants().rr == inv.rr + 1
            # embedded values stay linear in the exponents
            for f in elems:
                v = tower.value(f)
                doubled = tower.value(f * f)
                assert doubled == elem_add(v, v)
            done += 1
        assert done >= 15, f"only {done} feasible instances in {attempts} attempts"


class TestSignatureConflicts:
    def test_inconsistent_comparator_rejected(self):
        # A stand-in that answers differently on repeated queries of the
        # same difference vector cannot come from a place; the signature
        # builder must notice instead of silently keeping one answer.
        # It answers +1 the first time a vector is asked and -1 after that.
        class Flaky:
            arity = 2
            field = QQ

            def __init__(self):
                self.asked = set()

            def monomial_sign(self, e):
                if e in self.asked:
                    return -1
                self.asked.add(e)
                return 1

        # x1+x2 and x1^2+x1*x2 both query the difference vector (-1, 1)
        elems = [parse_expr("x1 + x2", 2, QQ), parse_expr("x1^2 + x1*x2", 2, QQ)]
        with pytest.raises(SignatureError):
            signature(Flaky(), elems)
