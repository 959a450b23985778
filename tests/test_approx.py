import random
from fractions import Fraction

import pytest

from placeforge import (
    AmbientGroup,
    BaseField,
    CompositePlace,
    InfeasibleShapeError,
    MonomialPlace,
    Poly,
    QuadScalar,
    RatFunc,
    TargetShape,
    compose,
    density_witness,
    goodify,
    in_basic_open,
    lattice,
    parse_expr,
    perturb_weights,
    signature,
)
from placeforge import approx
from placeforge.approx import (
    GoodifyResult,
    SignatureError,
    _build_monomial,
    _iota_witnesses,
    _max_rank_levels,
    _rational_collapse,
    _refined_convergents,
)
from placeforge.ordgroup import sqrt_convergents
from placeforge.places import Place

from gen import (
    random_irrational_place,
    random_monomial_place,
    random_poly,
    random_ratfunc,
    random_tower,
)
from oracles import elem_sign, fraction_rank, qvec, tower_value, values_agree

QQ = BaseField(0)
F5 = BaseField(5)


def sqrt_convergent(d, min_den):
    """The first convergent of sqrt(d) with denominator >= min_den."""
    return next(Fraction(p, q) for p, q in sqrt_convergents(d) if q >= min_den)


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
SIGN_CHAR = {1: "+", 0: "0", -1: "-"}


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

    def test_element_signs_match_value_sign(self):
        """Each element's sign comes from the signature's own term
        comparisons; it must be the sign value_sign computes from the term
        minima, on monomial places of 1-3 levels and on towers of depth 1-2
        nested both ways, for elements with tied terms and of value zero."""
        rng = random.Random(24)
        places = []
        for field in (QQ, F5):
            for levels in (1, 2, 3):
                for n in (2, 4, 6):
                    for irrational in (False, True):
                        places.append(random_monomial_place(rng, field, n, levels, irrational))
            for depth in (1, 2):
                for nest in ("inner", "outer"):
                    for irrational_inner in (False, True):
                        places.append(random_tower(rng, field, 4, irrational_inner, depth, nest))
        tied = zeros = 0
        for place in places:
            elems = signature_elements(rng, place)
            nonzero = [f for f in elems if not f.is_zero()]
            sig = signature(place, elems)
            assert list(sig.signs) == [place.value_sign(f) for f in nonzero]
            tied += any(s == 0 and any(m) for m, s in sig.entries)
            zeros += sig.signs.count(0)
        # most places see a tie, and every place at least z, z*z, 3
        assert tied >= len(places) // 2 and zeros >= 3 * len(places)

    def test_foreign_element_refused(self):
        with pytest.raises(ValueError, match="does not live in the place's function field"):
            signature(P_SQRT, [parse_expr("x1 + x3", 3, QQ)])


def signature_elements(rng, place):
    """Random g, h, their product and sum, the value-zero g*x^eh / (h*x^eg)
    (eg, eh minimal exponents of g, h) and its square, two terms tied by a
    kernel vector (alone, over a random h, and divided by one of them, so
    of value zero), a constant and the zero element."""
    field, n = place.field, place.arity
    one = Poly.const(field, n, 1)
    g, h = (RatFunc.make(random_poly(rng, field, n, nonzero=True), one) for _ in range(2))
    eg, eh = (min(place.initial_form(f)[0]) for f in (g, h))
    z = g * RatFunc.monomial(field, n, eh) / (h * RatFunc.monomial(field, n, eg))
    elems = [g, h, g * h, g + h, z, z * z, RatFunc.const(field, n, 3), RatFunc.zero(field, n)]
    for k in place.kernel_lattice()[:2]:
        e = [rng.randint(0, 2) for _ in range(n)]
        hi = tuple(x + max(c, 0) for x, c in zip(e, k))
        lo = tuple(x + max(-c, 0) for x, c in zip(e, k))
        tie = RatFunc.make(Poly.make(field, n, {hi: 1, lo: 2}), one)
        elems += [tie, tie / h, tie / RatFunc.monomial(field, n, lo)]
    return elems


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

    @pytest.mark.parametrize("shape", [
        TargetShape("preserve_residues", "discrete"),
        TargetShape("preserve_residues", "weighted_rational", r1=1),
    ])
    def test_arity_zero_has_no_weight_to_perturb(self, shape):
        # the equality locus of a place on no variables is the zero space
        place = MonomialPlace(QQ, 0, AMB, ())
        sig = signature(place, [RatFunc.const(QQ, 0, 1)])
        with pytest.raises(InfeasibleShapeError, match="every weight to zero"):
            perturb_weights(sig, place, shape)


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

    def test_identity_checks_reuse_the_callers_signs(self, monkeypatch):
        """preserve_both reads each check's sign off the value it already
        computed, so value_sign is never called; the already-in-class path
        calls it once per nonzero element.  Either way the checks match
        the tower-value reference."""
        rng = random.Random(41)
        cases = []
        for i in range(60):
            field, n = (QQ, F5)[i % 2], 2 + i % 3
            if i % 3 == 0:
                place = random_monomial_place(rng, field, n, levels=1 + i % 2)
            else:
                place = random_tower(rng, field, n, irrational_inner=i % 2 == 0,
                                     nest=("inner", "outer")[i % 4 // 2])
            inv = place.invariants()
            if inv.discrete:
                klass = dict(klass="discrete")
            elif inv.rank == 1:
                klass = dict(klass="weighted_rational", r1=inv.rr)
            elif inv.maximal_rank:
                klass = dict(klass="lex_max_rank")
            else:
                continue
            elems = [random_ratfunc(rng, field, n) for _ in range(5)]
            elems.append(RatFunc.zero(field, n))
            cases.append((place, elems, klass))
        assert len(cases) >= 20

        calls = []

        def counted(value_sign):
            def wrapper(self, f):
                calls.append((self, f))
                return value_sign(self, f)
            return wrapper

        def refuse(self, f):
            raise AssertionError("value_sign called on the preserve_both path")

        classes = (MonomialPlace, Place)
        originals = {cls: cls.__dict__["value_sign"] for cls in classes}
        for place, elems, klass in cases:
            nonzero = [f for f in elems if not f.is_zero()]
            signs = [elem_sign(tower_value(place, f)) for f in nonzero]
            want = [{"elem": str(f), "sign_q": SIGN_CHAR[s], "sign_p": SIGN_CHAR[s],
                     "residue_equal": True if s == 0 else None}
                    for f, s in zip(nonzero, signs)]
            for cls in classes:
                monkeypatch.setattr(cls, "value_sign", refuse)
            both = goodify(place, elems, TargetShape("preserve_both", **klass))
            assert both.place is place and both.checks == want
            for cls in classes:
                monkeypatch.setattr(cls, "value_sign", counted(originals[cls]))
            calls.clear()
            kept = goodify(place, elems, TargetShape("preserve_residues", **klass))
            assert kept.place is place and kept.checks == want
            assert [f for p, f in calls if p is place] == nonzero

    def test_preserve_both_reports_the_identity_without_checking_it(self, monkeypatch):
        """The identity is an order embedding, so preserve_both reports "ok"
        with the usual witnesses and never runs the embedding check."""
        from placeforge import approx

        def refuse(*args):
            raise AssertionError("order_embedding_check called on the preserve_both path")

        monkeypatch.setattr(approx, "order_embedding_check", refuse)
        result = goodify(P_23, ELEMS, TargetShape("preserve_both", "discrete"))
        values = [P_23.value(f).to_json() for f in ELEMS]
        assert result.iota == {
            "sources": values, "source_levels": [{"d": 2}],
            "images": values, "image_levels": [{"d": 2}],
            "witnesses": [[1, 0], [0, 1], [1, -1]], "verdict": "ok",
        }

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

    def test_composite_drop_all_zero_values(self, embedding_verdicts):
        # Every value is zero, so every integer relation holds among them
        # and a well-defined embedding sends each to zero: 1 + x2 keeps
        # residue value 0, while x2 would get the consumed generator's
        # weight 1.
        drop = TargetShape("preserve_values", "composite_drop", r1=2, d1=0)
        result = goodify(P_10, [q2("1 + x2")], drop)
        assert result.iterations == 1 and result.iota["verdict"] == "ok"
        assert result.place.value(q2("1 + x2")).is_zero()
        with pytest.raises(InfeasibleShapeError):
            goodify(P_10, [q2("1 + x2"), q2("x2")], drop)
        assert embedding_verdicts == ["ok", "ill_defined"]

    def test_composite_drop_keeps_sqrt_columns(self):
        # v(x2*x3) = sqrt(2) alone spans its group, so its corrected unit x3
        # may take the consumed generator's weight 1.
        place = gauss_place(1, QuadScalar.sqrt(2), 0)
        f = parse_expr("x2*x3", 3, QQ)
        result = goodify(place, [f], TargetShape("preserve_values", "composite_drop", r1=3, d1=0))
        assert result.iterations == 1
        assert result.place.value(f) == result.place.ambient.elem(QuadScalar.sqrt(2), 1)

    def test_composite_drop_matches_fraction_reference(self, embedding_verdicts):
        """The chosen outer generator is the first one that an independent
        reference accepts: attempt i gets the i-th embedding verdict, the
        first "ok" falls on the reference's attempt and none comes before."""
        rng = random.Random(41)
        outcomes, statuses = [], set()
        for i in range(60):
            field, n = (QQ, F5)[i % 2], 2 + i % 4
            place = (random_irrational_place(rng, field, n + 1) if i % 3 else
                     random_monomial_place(rng, field, n, irrational=False, zero_frac=0.4))
            inv = place.invariants()
            if inv.dim == 0:
                continue
            elems = [drop_element(rng, place) for _ in range(rng.randint(1, 4))]
            shape = TargetShape("preserve_values", "composite_drop",
                                r1=inv.rr + 1, d1=place.arity - inv.rr - 1)
            want = reference_drop_attempt(place, elems)
            embedding_verdicts.clear()
            if want is None:
                with pytest.raises(InfeasibleShapeError):
                    goodify(place, elems, shape)
                assert "ok" not in embedding_verdicts
                statuses.update(embedding_verdicts)
                outcomes.append(None)
                continue
            result = goodify(place, elems, shape)
            assert result.iterations == want
            assert embedding_verdicts.index("ok") == want - 1 == len(embedding_verdicts) - 1
            statuses.update(embedding_verdicts)
            for f in elems:
                assert values_agree(result.place.value(f), tower_value(result.place, f))
            outcomes.append(want)
        assert "ill_defined" in statuses  # attempts rejected as ill defined
        assert None in outcomes and 1 in outcomes and max(o or 0 for o in outcomes) >= 2

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


@pytest.fixture
def embedding_verdicts(monkeypatch):
    """Statuses of every order_embedding_check that composite_drop runs."""
    from placeforge import approx

    real_check = approx.order_embedding_check
    verdicts = []

    def recording_check(*args):
        verdict = real_check(*args)
        verdicts.append(verdict.status)
        return verdict

    monkeypatch.setattr(approx, "order_embedding_check", recording_check)
    return verdicts


def drop_element(rng, place):
    """A Laurent monomial, times a residue generator's monomial or a unit
    1 + (generator) at random: values and corrected units both vary."""
    field, n = place.field, place.arity
    gens = place.residue_desc().gens
    f = RatFunc.monomial(field, n, tuple(rng.randint(-2, 2) for _ in range(n)))
    if gens and rng.random() < 0.6:
        g = rng.choice(gens)
        f = f * RatFunc.monomial(field, n, tuple(rng.choice([1, -1]) * x for x in g))
    if gens and rng.random() < 0.4:
        f = f * (RatFunc.const(field, n, 1) + RatFunc.monomial(field, n, rng.choice(gens)))
    return f


def reference_drop_attempt(place, elems):
    """First outer generator (1-based) whose tower keeps every rational
    relation among the values and the sign of every witness, decided by
    fraction ranks and the tower value oracle; None when none does."""
    nonzero = [f for f in elems if not f.is_zero()]
    values = [tower_value(place, f) for f in nonzero]
    rows = [qvec(v) for v in values]
    rank = fraction_rank(rows) if rows else 0
    k = place.residue_desc().num_gens
    for c in range(k):
        outer = MonomialPlace(place.field, k, AMB, tuple(AMB.elem(int(i == c)) for i in range(k)))
        images = [tower_value(compose(place, outer), f) for f in nonzero]
        if rows and fraction_rank([r + qvec(w) for r, w in zip(rows, images)]) != rank:
            continue
        pairs = list(zip(values, images))
        diffs = [(v1 - v2, w1 - w2) for i, (v1, w1) in enumerate(pairs) for v2, w2 in pairs[i + 1:]]
        if all(elem_sign(v) == elem_sign(w) for v, w in pairs + diffs):
            return c + 1
    return None


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

    @pytest.mark.parametrize("signs, ok", [
        (("0", "+", "+"), True),
        (("-", "+", "+"), False),
        (("+", "-", "+"), False),
        (("+", "+", "0"), False),
        (("+", "+", "-"), False),
    ])
    def test_membership_is_read_from_the_report(self, monkeypatch, signs, ok):
        """The closing membership test reads each nonzero element's
        `sign_p` from goodify's checks, in order, past the zero elements:
        `-` refuses an element of A, `-` or `0` one of B."""
        zero = q2("0")
        A, B = [zero, q2("x1"), zero, q2("x2")], [zero, q2("x1*x2")]
        report = GoodifyResult(P_23, checks=[
            {"elem": str(f), "sign_q": "+", "sign_p": s, "residue_equal": None}
            for f, s in zip([A[1], A[3], B[1]], signs)])
        monkeypatch.setattr(approx, "goodify", lambda place, elems, shape: report)
        shape = TargetShape("preserve_residues", "discrete")
        if ok:
            assert density_witness(P_23, A, B, shape) is report
        else:
            with pytest.raises(AssertionError, match="should have implied membership"):
                density_witness(P_23, A, B, shape)

    def test_zero_dimensional_tower_witness(self):
        A, B = [q2("x1")], [q2("x1^2")]
        result = density_witness(P_10, A, B,
                                 TargetShape("preserve_values", "composite_drop", r1=2, d1=0))
        assert isinstance(result.place, CompositePlace)
        assert result.place.invariants().dim == 0
        assert in_basic_open(result.place, A, B)


def fraction_collapse(place, iteration):
    """The collapse as a Fraction vector, straight from the flat weights:
    sum over levels of 2**(-iteration * level) * (a + (p/q) * b), with p/q
    the level's first convergent of sqrt(d) with q >= 2**iteration."""
    eps = Fraction(1, 2**iteration)
    out = []
    for w in place.flat_place.weights:
        total = Fraction(0)
        for lv, (c, d) in enumerate(zip(w.coords, place.ambient.ds)):
            total += eps**lv * (c.a + sqrt_convergent(d, 2**iteration) * c.b)
        out.append(total)
    return out


def kernel_tie_break_cols(ints):
    """Tie-break columns by the kernel construction: the pivot columns of
    the HNF of the kernel of `ints`, taken in reversed column order."""
    n = len(ints)
    kernel = lattice.row_kernel([[w] for w in ints])
    rev = lattice.hnf([tuple(reversed(row)) for row in kernel])
    return sorted(n - 1 - c for c in lattice.pivot_cols(rev))


def generator_iota_witnesses(count):
    """The witnesses as one conditional generator expression per entry."""
    out = []
    for i in range(count):
        out.append(tuple(1 if k == i else 0 for k in range(count)))
    for i in range(count):
        for j in range(i + 1, count):
            out.append(tuple((1 if k == i else 0) - (1 if k == j else 0) for k in range(count)))
    return out


@pytest.mark.parametrize("count", range(9))
def test_iota_witnesses_match_the_generator_form(count):
    assert _iota_witnesses(count) == generator_iota_witnesses(count)


class TestIntegerRefinement:
    def test_rational_collapse_matches_the_fraction_formula(self):
        rng = random.Random(13)
        places = [random_monomial_place(rng, QQ, rng.randint(1, 4), levels=rng.randint(1, 3),
                                        irrational=rng.random() < 0.7,
                                        zero_frac=rng.choice([0.0, 0.3, 0.6]))
                  for _ in range(40)]
        places += [random_tower(rng, QQ, 2, rng.random() < 0.5) for _ in range(6)]
        assert {d for p in places for d in p.ambient.ds} == {2, 3, 5}
        assert any(len(p.ambient.ds) == 3 for p in places)
        assert any(not any(w.coords[0].a or w.coords[0].b for w in p.flat_place.weights)
                   for p in places)  # a level that is zero in every variable
        for place in places:
            for iteration in range(13):
                convs = [sqrt_convergent(d, 2**iteration) for d in place.ambient.ds]
                convs = [(c.numerator, c.denominator) for c in convs]
                row, den = _rational_collapse(place, convs, iteration)
                assert den > 0
                assert [Fraction(x, den) for x in row] == fraction_collapse(place, iteration)

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13])
    def test_carried_convergents_match_the_restarted_ones(self, d):
        levels = _refined_convergents(d)
        for iteration in range(81):
            p, q = next(levels)
            assert Fraction(p, q) == sqrt_convergent(d, 2**iteration)
            assert q >= 2**iteration

    def test_max_rank_levels_match_the_kernel_construction(self):
        rng = random.Random(14)
        for _ in range(300):
            n = rng.randint(1, 8)
            lead = rng.randint(0, n - 1)
            ints = [0] * lead + [rng.choice([-3, -1, 1, 2, 5])]
            ints += [rng.choice([0, 0, -2, -1, 1, 3]) for _ in range(n - lead - 1)]
            levels = _max_rank_levels(ints)
            assert levels[0] == ints
            assert all(sorted(level) == [0] * (n - 1) + [1] for level in levels[1:])
            assert [level.index(1) for level in levels[1:]] == kernel_tie_break_cols(ints)
            inv = _build_monomial(QQ, n, levels).invariants()
            assert inv.maximal_rank and inv.dim == 0
