import random
from fractions import Fraction

import pytest

from placeforge import (
    AmbientGroup,
    BaseField,
    CompositePlace,
    InfeasibleShapeError,
    MonomialPlace,
    QuadScalar,
    TargetShape,
    compose,
    density_witness,
    goodify,
    in_basic_open,
    parse_expr,
    perturb_weights,
    signature,
)
from placeforge.approx import SignatureError

from gen import random_monomial_place, random_ratfunc

QQ = BaseField(0)
F5 = BaseField(5)
AMB = AmbientGroup((2,))


def gauss_place(*scalars, field=QQ):
    weights = tuple(AMB.elem(s) for s in scalars)
    return MonomialPlace(field, len(weights), AMB, weights)


P_SQRT = gauss_place(1, QuadScalar.sqrt(2))
P_10 = gauss_place(1, 0)
P_23 = gauss_place(2, 3)


def q2(text):
    return parse_expr(text, 2, QQ)


ELEMS = [q2("x1+x2"), q2("x1^2/x2")]


class TestSignature:
    def test_pair_and_value_entries(self):
        sig = signature(P_SQRT, [q2("x1+x2")])
        assert ((1, -1), -1) in sig.entries  # x1 beats x2: 1 - sqrt2 < 0
        assert ((1, 0), 1) in sig.entries    # the element's value is positive

    def test_single_monomial(self):
        sig = signature(P_SQRT, [q2("x1^2/x2")])
        assert sig.entries == frozenset({((2, -1), 1)})

    def test_constant_one(self):
        sig = signature(P_SQRT, [q2("1")])
        assert sig.entries == frozenset({((0, 0), 0)})

    def test_zero_skipped_with_notice(self):
        sig = signature(P_SQRT, [q2("0"), q2("x1")])
        assert sig.notices and "zero" in sig.notices[0]
        assert sig.entries == frozenset({((1, 0), 1)})

    def test_signature_pins_down_initial_forms(self):
        rng = random.Random(3)
        for _ in range(40):
            place = random_monomial_place(rng, QQ, 3)
            f = random_ratfunc(rng, QQ, 3, nonzero=True)
            sig = signature(place, [f])
            # ties recorded with sign 0 exactly for equal-value term pairs
            for m, s in sig.entries:
                assert place.monomial_value(m).sign() == s


class TestPerturbWeights:
    def test_discrete_example(self):
        sig = signature(P_SQRT, ELEMS)
        result = perturb_weights(sig, P_SQRT, TargetShape("preserve_residues", "discrete"))
        assert [str(w) for w in result.place.weights] == ["2", "3"]
        assert result.place.invariants().discrete

    def test_identity_when_already_in_class(self):
        sig = signature(P_23, ELEMS)
        result = perturb_weights(sig, P_23, TargetShape("preserve_residues", "discrete"))
        assert [str(w) for w in result.place.weights] == ["2", "3"]
        assert result.iterations == 0

    def test_lex_max_rank_example(self):
        sig = signature(P_SQRT, ELEMS)
        result = perturb_weights(sig, P_SQRT, TargetShape("preserve_residues", "lex_max_rank"))
        place = result.place
        amb = place.ambient
        assert place.weights[0] == amb.elem(2, 0)
        assert place.weights[1] == amb.elem(3, 1)
        inv = place.invariants()
        assert inv.maximal_rank and inv.rational

    def test_lex_max_rank_rejects_ties(self):
        sig = signature(P_10, [q2("x2")])  # v(x2) = 0: a genuine tie with 1
        with pytest.raises(InfeasibleShapeError):
            perturb_weights(sig, P_10, TargetShape("preserve_residues", "lex_max_rank"))

    def test_signs_preserved_on_random_instances(self):
        rng = random.Random(4)
        for _ in range(40):
            place = random_monomial_place(rng, rng.choice([QQ, F5]), 3)
            elems = [random_ratfunc(rng, place.field, 3, nonzero=True) for _ in range(3)]
            sig = signature(place, elems)
            result = perturb_weights(sig, place, TargetShape("preserve_residues", "discrete"))
            for m, s in sig.entries:
                assert result.place.monomial_value(m).sign() == s
            assert result.iterations <= 64

    def test_weighted_rational_rank_two(self):
        sig = signature(P_SQRT, ELEMS)
        result = perturb_weights(
            sig, P_SQRT, TargetShape("preserve_residues", "weighted_rational", r1=2)
        )
        inv = result.place.invariants()
        assert inv.rr == 2 and inv.rank == 1
        for m, s in sig.entries:
            assert result.place.monomial_value(m).sign() == s

    def test_weighted_rational_r1_too_big(self):
        sig = signature(P_SQRT, ELEMS)
        with pytest.raises(InfeasibleShapeError):
            perturb_weights(sig, P_SQRT,
                            TargetShape("preserve_residues", "weighted_rational", r1=3))


class TestGoodify:
    def test_discrete_preserves_residues(self):
        elems = ELEMS + [q2("(x1+x2)/x1")]
        result = goodify(P_SQRT, elems, TargetShape("preserve_residues", "discrete"))
        assert result.place.invariants().discrete
        unit_check = [c for c in result.checks if c["elem"] == "(x1 + x2)/x1"]
        assert unit_check and unit_check[0]["residue_equal"] is True
        assert result.iota is None

    def test_idempotent_on_matching_class(self):
        result = goodify(P_23, ELEMS, TargetShape("preserve_both", "discrete"))
        assert result.place is P_23
        assert result.iota["verdict"] == "ok"

    def test_idempotent_preserve_residues(self):
        # a place already in the class is its own replacement, byte for byte
        import json

        for place, shape in [
            (P_23, TargetShape("preserve_residues", "discrete")),
            (P_SQRT, TargetShape("preserve_residues", "weighted_rational", r1=2)),
        ]:
            result = goodify(place, ELEMS, shape)
            assert json.dumps(result.place.to_json(), sort_keys=True) == json.dumps(
                place.to_json(), sort_keys=True
            )
            assert result.iterations == 0

    def test_preserve_both_infeasible_when_class_differs(self):
        with pytest.raises(InfeasibleShapeError):
            goodify(P_SQRT, ELEMS, TargetShape("preserve_both", "discrete"))

    def test_composite_drop_example(self):
        result = goodify(P_10, [q2("x1")],
                         TargetShape("preserve_values", "composite_drop", r1=2, d1=0))
        place = result.place
        assert isinstance(place, CompositePlace)
        assert place.outer.weights[0] == AMB.elem(1)
        v = place.value(q2("x1"))
        assert v == place.ambient.elem(1, 0)
        assert result.iota["verdict"] == "ok"
        inv = place.invariants()
        assert inv.dim == 0 and inv.rr == 2

    def test_composite_drop_checks_hypotheses(self):
        with pytest.raises(InfeasibleShapeError):
            goodify(P_SQRT, [q2("x1")],
                    TargetShape("preserve_values", "composite_drop", r1=3, d1=0))
        with pytest.raises(InfeasibleShapeError):
            goodify(P_10, [q2("x1")],
                    TargetShape("preserve_values", "composite_drop", r1=3, d1=1))

    def test_composite_drop_value_embedding_on_products(self):
        elems = [q2("x1"), q2("x1^2"), q2("(x1^2 + x1^3)/x1")]
        result = goodify(P_10, elems,
                         TargetShape("preserve_values", "composite_drop", r1=2, d1=0))
        place = result.place
        vals = [place.value(f) for f in elems]
        # the embedding is linear: v(x1^2) = 2 v(x1), and equal inner values
        # stay equal through the tower
        assert (vals[1] - (vals[0] + vals[0])).is_zero()
        assert (vals[2] - vals[0]).is_zero()

    def test_composite_drop_reports_out_of_scope_inputs(self):
        # x1*x2 forces the corrected unit x2, whose residue is a bare
        # generator; no origin-centered outer place keeps it a unit.
        with pytest.raises(InfeasibleShapeError):
            goodify(P_10, [q2("x1"), q2("x1*x2")],
                    TargetShape("preserve_values", "composite_drop", r1=2, d1=0))

    def test_composite_drop_tries_each_generator_once(self, monkeypatch):
        # x1*x2 and x1*x3 force the corrected units x2 and x3; whichever
        # generator the outer place consumes, one of them stops being a
        # unit, and scaling the outer weight cannot change that.
        from placeforge import approx

        place = gauss_place(1, 0, 0)
        attempts = []

        def counting_compose(inner, outer):
            attempts.append(outer)
            return compose(inner, outer)

        monkeypatch.setattr(approx, "compose", counting_compose)
        elems = [parse_expr(t, 3, QQ) for t in ("x1", "x1*x2", "x1*x3")]
        with pytest.raises(InfeasibleShapeError):
            goodify(place, elems, TargetShape("preserve_values", "composite_drop", r1=2, d1=1))
        assert len(attempts) == place.residue_desc().num_gens == 2

    def test_goodify_composite_input(self):
        tower = compose(P_10, gauss_place(1))
        elems = [q2("x1 + x2"), q2("x1*x2")]
        result = goodify(tower, elems, TargetShape("preserve_residues", "discrete"))
        assert result.place.invariants().discrete
        for entry in result.checks:
            assert entry["sign_q"] == entry["sign_p"]

    def test_mode_class_mismatch(self):
        with pytest.raises(InfeasibleShapeError):
            goodify(P_10, [q2("x1")], TargetShape("preserve_values", "discrete"))


class TestDensityWitness:
    def test_spec_neighborhood(self):
        A = [q2("x1+x2"), q2("x1^2/x2")]
        B = [q2("x1")]
        result = density_witness(P_SQRT, A, B, TargetShape("preserve_residues", "discrete"))
        assert [str(w) for w in result.place.weights] == ["2", "3"]
        assert in_basic_open(result.place, A, B)

    def test_whole_space(self):
        result = density_witness(P_SQRT, [], [], TargetShape("preserve_residues", "discrete"))
        assert result.place.invariants().discrete

    def test_prime_divisor_configuration(self):
        A = [q2("x1")]
        result = density_witness(P_SQRT, A, [],
                                 TargetShape("preserve_residues", "weighted_rational", r1=1))
        inv = result.place.invariants()
        assert inv.prime_divisor and inv.dim == 1
        assert in_basic_open(result.place, A, [])

    def test_not_in_neighborhood(self):
        with pytest.raises(ValueError):
            density_witness(P_SQRT, [q2("1/x1")], [], TargetShape("preserve_residues", "discrete"))

    def test_zero_dimensional_tower_witness(self):
        A, B = [q2("x1")], [q2("x1^2")]
        result = density_witness(P_10, A, B,
                                 TargetShape("preserve_values", "composite_drop", r1=2, d1=0))
        assert isinstance(result.place, CompositePlace)
        assert result.place.invariants().dim == 0
        assert in_basic_open(result.place, A, B)


class TestMaxIterEnv:
    def test_env_cap_respected(self, monkeypatch):
        monkeypatch.setenv("PLACEFORGE_MAX_ITER", "1")
        from placeforge.approx import max_iterations

        assert max_iterations() == 1
        monkeypatch.setenv("PLACEFORGE_MAX_ITER", "0")
        with pytest.raises(ValueError):
            max_iterations()
