import json
import random
import time
from fractions import Fraction

import pytest

from placeforge import (
    AmbientGroup,
    BaseField,
    CompositePlace,
    InfeasibleShapeError,
    MonomialPlace,
    Poly,
    RatFunc,
    TargetShape,
    compose,
    density_witness,
    goodify,
    lattice,
    parse_expr,
    perturb_weights,
    signature,
)
from placeforge import approx
from placeforge._kernels import term_mins
from placeforge.approx import (
    GoodifyResult,
    SignatureError,
    SignSignature,
    _build_monomial,
    _check,
    _iota_witnesses,
    _max_rank_levels,
    _rational_collapse,
    _refined_convergents,
)
from placeforge.cli import main
from placeforge.ordgroup import row_sign, sqrt_convergents
from placeforge.places import Place

from gen import (
    monomial_place,
    random_irrational_place,
    random_monomial_place,
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
    qvec,
    tower_value,
    values_agree,
)

QQ = BaseField(0)
F5 = BaseField(5)


def sqrt_convergent(d, min_den):
    """The first convergent of sqrt(d) with denominator >= min_den."""
    return next(Fraction(p, q) for p, q in sqrt_convergents(d) if q >= min_den)


AMB = AmbientGroup((2,))


# the level value sqrt(2), as an (a, b) pair
SQRT2 = (0, 1)


def gauss_place(*scalars, field=QQ):
    return monomial_place(field, AMB, [[s] for s in scalars])


def row_value_sign(place, f):
    """The sign of v(f) for nonzero f: row_sign of its value row."""
    return row_sign(place.value_row(f), place.ambient.ds)


P_SQRT = gauss_place(1, SQRT2)
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

    def test_element_signs_match_the_value_row_sign(self):
        """Each element's sign comes from the signature's own term
        comparisons; it must be the sign of the value row, the difference
        of the term minima, on monomial places of 1-3 levels and on towers of depth 1-2
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
            assert list(sig.signs) == [row_value_sign(place, f) for f in nonzero]
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
    eg, eh = (min(place.sign_and_initial_form(f)[1][0]) for f in (g, h))
    z = g * RatFunc.monomial(field, n, eh) / (h * RatFunc.monomial(field, n, eg))
    elems = [g, h, g * h, g + h, z, z * z, RatFunc.const(field, n, 3), RatFunc.zero(field, n)]
    for k in place.flat_place.residue_desc().gens[:2]:
        e = [rng.randint(0, 2) for _ in range(n)]
        hi = tuple(x + max(c, 0) for x, c in zip(e, k))
        lo = tuple(x + max(-c, 0) for x, c in zip(e, k))
        tie = RatFunc.make(Poly.make(field, n, {hi: 1, lo: 2}), one)
        elems += [tie, tie / h, tie / RatFunc.monomial(field, n, lo)]
    return elems


def pairwise_signature(place, elems):
    """The signature as it was before it recorded one minimal term per
    polynomial: the sign of every pair of terms of each numerator and
    denominator, and each element's own sign."""
    entries = {}

    def add(m, s):
        if m < (0,) * len(m):
            m, s = tuple(-x for x in m), -s
        if entries.setdefault(m, s) != s:
            raise SignatureError(f"conflicting signs for {m}")

    for f in elems:
        if f.is_zero():
            continue
        sides = []
        for poly in (f.num, f.den):
            exps = sorted(poly.terms)
            pair_sign = {}
            for i in range(len(exps)):
                for j in range(i + 1, len(exps)):
                    m = tuple(x - y for x, y in zip(exps[i], exps[j]))
                    pair_sign[i, j] = place.monomial_sign(m)
                    add(m, pair_sign[i, j])
            best = 0
            for i in range(1, len(exps)):
                if pair_sign[best, i] > 0:
                    best = i
            sides.append(exps[best])
        m = tuple(x - y for x, y in zip(*sides))
        add(m, place.monomial_sign(m))
    return SignSignature(frozenset(entries.items()))


def ties_above_the_minimum(rng, place):
    """Per kernel vector k of the place, x^hi + 2*x^lo with hi - lo = k and
    of nonzero value, plus a monomial of lower value (1, or x^(2*hi) when
    the value is negative): its two tied terms are not minimal."""
    field, n = place.field, place.arity
    one = Poly.const(field, n, 1)
    elems = []
    for k in place.flat_place.residue_desc().gens[:2]:
        e = [rng.randint(0, 2) for _ in range(n)]
        hi = tuple(x + max(c, 0) for x, c in zip(e, k))
        lo = tuple(x + max(-c, 0) for x, c in zip(e, k))
        s = place.monomial_sign(hi)
        if s:
            low = (0,) * n if s > 0 else tuple(2 * x for x in hi)
            elems.append(RatFunc.make(Poly.make(field, n, {hi: 1, lo: 2, low: 1}), one))
    return elems


REPLACE_SHAPES = [
    TargetShape("preserve_residues", "discrete"),
    TargetShape("preserve_residues", "weighted_rational", r1=1),
    TargetShape("preserve_residues", "weighted_rational", r1=2),
    TargetShape("preserve_residues", "lex_max_rank"),
]


class TestMinimalTermSignature:
    def test_entries_are_a_subset_of_the_pairwise_signature(self):
        """On seeded monomial places and towers, the signature keeps only
        entries the pairwise one has; goodify from it passes its own
        residue and sign checks, and it refuses only what the pairwise
        signature refuses too.  Ties above the minimum make the pairwise
        signature refuse some lex_max_rank inputs that it no longer does."""
        rng = random.Random(27)
        places = [random_monomial_place(rng, rng.choice([QQ, F5]), n, levels)
                  for n in (2, 3, 4) for levels in (1, 2) for _ in range(3)]
        places += [random_tower(rng, QQ, 3, irrational_inner, 1, nest)
                   for irrational_inner in (False, True) for nest in ("inner", "outer")]
        dropped = refused = freed = 0
        for place in places:
            for make in (signature_elements, ties_above_the_minimum):
                elems = make(rng, place)
                sig, ref = signature(place, elems), pairwise_signature(place, elems)
                assert sig.entries <= ref.entries
                dropped += len(ref.entries - sig.entries)
                for shape in REPLACE_SHAPES:
                    try:
                        perturb_weights(sig, place, shape)
                    except InfeasibleShapeError:
                        refused += 1
                        with pytest.raises(InfeasibleShapeError):
                            perturb_weights(ref, place, shape)
                        continue
                    goodify(place, elems, shape)  # raises if its own checks fail
                    try:
                        perturb_weights(ref, place, shape)
                    except InfeasibleShapeError:
                        freed += 1
        assert dropped and refused and freed, (dropped, refused, freed)

    def test_queries_per_polynomial_are_linear(self):
        """A stand-in place counts monomial_sign calls: at most 2(t - 1) per
        polynomial of t terms, plus one per element, also when the scan's
        minimum moves many times (x1 of negative weight on an element
        sorted by its x1 exponent)."""

        class Counting:
            def __init__(self, place):
                self.place, self.arity, self.field, self.calls = place, place.arity, place.field, 0

            def monomial_sign(self, m):
                self.calls += 1
                return self.place.monomial_sign(m)

        f = THOUSAND_TERMS
        t = len(f.num.terms)
        for first in (1, -1):
            place = gauss_place(first, SQRT2, 3)
            counting = Counting(place)
            sig = signature(counting, [f])
            assert counting.calls <= 2 * (t - 1) + 1
            assert len(sig.entries) <= t
            assert all(place.monomial_sign(m) == s for m, s in sig.entries)
            assert sig.signs == (row_value_sign(place, f),)
            # the scan asks again only when its minimum moved past a term
            assert (counting.calls > t) == (first < 0)

    def test_thousand_terms_goodify_in_linear_time(self):
        # The pairwise signature asked t(t - 1)/2 = 499500 pairs here and
        # took 1.5 s in process on a 2-vCPU x86 machine; this takes 10 ms.
        start = time.perf_counter()
        result = goodify(gauss_place(1, SQRT2, 3), [THOUSAND_TERMS],
                         TargetShape("preserve_residues", "discrete"))
        assert time.perf_counter() - start < 1.0
        assert [str(w) for w in result.place.weights] == ["1", "1", "3"]


THOUSAND_TERMS = RatFunc.make(
    Poly.make(QQ, 3, {(i, 7 * i % 13, 3 * i % 5): 1 for i in range(1000)}),
    Poly.const(QQ, 3, 1),
)

# Weights (1, 1, sqrt 2) on one level, d = 2: x1 and x2 tie, but only the
# constant term of 1 + x1 + x2 is minimal, so a maximal-rank place may break
# the tie.
TIE_ABOVE_MINIMUM = {
    "command": "goodify",
    "place": {"kind": "monomial", "base": "Q", "arity": 3, "ambient": {"levels": [{"d": 2}]},
              "weights": [[{"a": "1", "b": "0"}], [{"a": "1", "b": "0"}],
                          [{"a": "0", "b": "1"}]]},
    "elems": ["1 + x1 + x2"],
    "shape": {"mode": "preserve_residues", "class": "lex_max_rank"},
}


class TestTieAboveTheMinimum:
    def test_lex_max_rank_breaks_a_tie_of_non_minimal_terms(self):
        place = gauss_place(1, 1, SQRT2)
        f = parse_expr("1 + x1 + x2", 3, QQ)
        result = goodify(place, [f], TargetShape("preserve_residues", "lex_max_rank"))
        assert result.place.invariants().maximal_rank
        assert result.checks == [{"elem": str(f), "sign_q": "0", "sign_p": "0",
                                  "residue_equal": True}]

    def test_lex_max_rank_job_exits_0(self, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(TIE_ABOVE_MINIMUM))
        assert main(["--spec", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["invariants"]["flags"]["maximal_rank"]
        assert [c["residue_equal"] for c in report["checks"]] == [True]


@pytest.mark.parametrize("obj", [
    {}, [], "discrete", None, {"mode": "preserve_residues"},
    {"class": "weighted_rational", "r1": "2"}, {"class": "weighted_rational", "r1": 1.5},
    {"class": "weighted_rational", "r1": 1.0}, {"class": "weighted_rational", "r1": True},
    {"class": "composite_drop", "r1": 2, "d1": None}, {"class": "discrete", "r1": -1},
    {"class": "discrete", "x": 1}, {"class": "discrete", "mode": ["preserve_values"]},
    {"class": "bogus"},
])
def test_shape_decoding_refuses_what_the_schema_refuses(obj):
    """TargetShape.from_json, which library callers reach without the CLI's
    schema check, refuses each of these with a one-line ValueError; a float
    r1 never reaches the rank-two path."""
    with pytest.raises(ValueError) as info:
        TargetShape.from_json(obj)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("fields", [
    {"klass": "weighted_rational", "r1": 1.5},
    {"klass": "weighted_rational", "r1": True},
    {"klass": "weighted_rational", "r1": "2"},
    {"klass": "composite_drop", "r1": 2, "d1": 0.0},
], ids=lambda fields: repr(fields["r1"]) if "d1" not in fields else "d1=0.0")
def test_shape_constructor_refuses_a_field_that_is_not_an_int(fields):
    """A library caller building the shape directly meets the same rule as
    from_json: r1 and d1 are ints, not floats, bools or strings, refused
    with one ValueError line (a float r1 never takes the rank-two path)."""
    with pytest.raises(ValueError, match=r"^r1 and d1 must be ints or None, got .*$") as info:
        TargetShape("preserve_residues", **fields)
    assert "\n" not in str(info.value)


def test_shape_decoding_reads_the_schema_fields():
    shape = TargetShape.from_json({"class": "composite_drop", "mode": "preserve_values",
                                   "r1": 2, "d1": 0})
    assert shape == TargetShape("preserve_values", "composite_drop", r1=2, d1=0)
    assert TargetShape.from_json({"class": "discrete"}) == TargetShape("preserve_residues",
                                                                       "discrete")


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
        assert place.weights[0] == elem(amb, 2, 0)
        assert place.weights[1] == elem(amb, 3, 1)
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
        place = MonomialPlace(QQ, 0, AMB, [])
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
        computed, and the already-in-class path off one value row per
        nonzero element, so no other sign route is taken.  Either way the
        checks match the tower-value reference."""
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

        def counted(value_row):
            def wrapper(self, f):
                calls.append((self, f))
                return value_row(self, f)
            return wrapper

        classes = (MonomialPlace, Place)
        originals = {cls: cls.__dict__["value_row"] for cls in classes}
        for cls in classes:
            monkeypatch.setattr(cls, "value_row", counted(originals[cls]))
        for place, elems, klass in cases:
            nonzero = [f for f in elems if not f.is_zero()]
            signs = [elem_sign(tower_value(place, f)) for f in nonzero]
            want = [{"elem": str(f), "sign_q": SIGN_CHAR[s], "sign_p": SIGN_CHAR[s],
                     "residue_equal": True if s == 0 else None}
                    for f, s in zip(nonzero, signs)]
            calls.clear()
            both = goodify(place, elems, TargetShape("preserve_both", **klass))
            assert both.place is place and both.checks == want
            assert calls == []
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
        assert place.outer.weights[0] == elem(AMB, 1)
        v = place.value(q2("x1"))
        assert v == elem(place.ambient, 1, 0)
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
        assert vals[1] == elem_add(vals[0], vals[0])
        assert vals[2] == vals[0]

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
        assert result.place.value(q2("1 + x2")) == elem(result.place.ambient, 0, 0)
        with pytest.raises(InfeasibleShapeError):
            goodify(P_10, [q2("1 + x2"), q2("x2")], drop)
        assert embedding_verdicts == ["ok", "ill_defined"]

    def test_composite_drop_keeps_sqrt_columns(self):
        # v(x2*x3) = sqrt(2) alone spans its group, so its corrected unit x3
        # may take the consumed generator's weight 1.
        place = gauss_place(1, SQRT2, 0)
        f = parse_expr("x2*x3", 3, QQ)
        result = goodify(place, [f], TargetShape("preserve_values", "composite_drop", r1=3, d1=0))
        assert result.iterations == 1
        assert result.place.value(f) == elem(result.place.ambient, SQRT2, 1)

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


def initial_form(place, f):
    return place.sign_and_initial_form(f)[1]


def two_pass_residue_checks(old, new, nonzero, texts, old_signs):
    """_residue_checks as it was before its one pass: the new place's value
    sign and its initial form each take their own pair of term scans."""
    return [
        _check(text, sq, row_value_sign(new, f),
               initial_form(old, f) == initial_form(new, f) if sq == 0 else None)
        for f, text, sq in zip(nonzero, texts, old_signs)
    ]


def residue_check_inputs(rng):
    """Seeded goodify inputs: (old place, new place, nonzero elements,
    signature), the new place either perturb_weights' result or an
    unrelated monomial place on the same variables, so that signs and
    residues also disagree.  Every sixth element is built to have value 0
    under the old place, so residues are compared."""
    shapes = [TargetShape("preserve_residues", "discrete"),
              TargetShape("preserve_residues", "lex_max_rank"),
              TargetShape("preserve_residues", "weighted_rational", r1=1)]
    for i in range(60):
        field, n = (QQ, F5)[i % 2], 2 + i % 3
        old = (random_monomial_place(rng, field, n, levels=1 + i % 3) if i % 3
               else random_tower(rng, field, n, irrational_inner=i % 2 == 0))
        elems = [random_ratfunc(rng, field, n, nonzero=True) for _ in range(5)]
        # f over one of its numerator's minimal terms has value 0
        canon = min(initial_form(old, elems[0])[0])
        elems.append(elems[0] / RatFunc.monomial(field, n, canon))
        sig = signature(old, elems)
        try:
            new = perturb_weights(sig, old, shapes[i % 3]).place
        except InfeasibleShapeError:
            new = random_monomial_place(rng, field, n, levels=1 + i % 2)
        yield old, new, elems, sig
        yield old, random_monomial_place(rng, field, n, levels=2), elems, sig


class TestResidueChecks:
    def test_match_the_two_pass_form(self):
        rng = random.Random(59)
        seen = {"residue_equal": set(), "agree": set()}
        for old, new, elems, sig in residue_check_inputs(rng):
            got = approx._residue_checks(old, new, elems, sig.sources, sig.signs)
            assert got == two_pass_residue_checks(old, new, elems, sig.sources, sig.signs)
            for entry in got:
                seen["residue_equal"].add(entry["residue_equal"])
                seen["agree"].add(entry["sign_q"] == entry["sign_p"])
        assert seen == {"residue_equal": {None, True, False}, "agree": {True, False}}, seen

    def test_one_term_scan_pair_per_element_on_the_new_place(self, monkeypatch):
        """Each element takes one term_mins pass over its numerator's
        exponents and one over its denominator's on the new place, and
        value and value_row are not called on it."""
        calls = []

        def counted(exps, levels):
            calls.append((exps, levels))
            return term_mins(exps, levels)

        monkeypatch.setattr("placeforge.places.term_mins", counted)
        rng = random.Random(61)
        for old, new, elems, sig in residue_check_inputs(rng):
            for name in ("value", "value_row"):
                monkeypatch.setattr(new, name, None)
            calls.clear()
            approx._residue_checks(old, new, elems, sig.sources, sig.signs)
            levels = new.flat_place._levels
            assert [exps for exps, at in calls if at is levels] == [
                list(poly.terms) for f in elems for poly in (f.num, f.den)]


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
        outer = MonomialPlace(place.field, k, AMB, [(int(i == c), 0) for i in range(k)])
        images = [tower_value(compose(place, outer), f) for f in nonzero]
        if rows and fraction_rank([r + qvec(w) for r, w in zip(rows, images)]) != rank:
            continue
        pairs = list(zip(values, images))
        diffs = [(elem_sub(v1, v2), elem_sub(w1, w2))
                 for i, (v1, w1) in enumerate(pairs) for v2, w2 in pairs[i + 1:]]
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
        monkeypatch.setattr(approx, "_goodify", lambda place, elems, shape, rows: report)
        shape = TargetShape("preserve_residues", "discrete")
        if ok:
            assert density_witness(P_23, A, B, shape) is report
        else:
            with pytest.raises(AssertionError, match="should have implied membership"):
                density_witness(P_23, A, B, shape)

    def test_old_place_is_evaluated_once_per_element(self, monkeypatch):
        """The opening membership test takes one value row per nonzero
        element, A then B, and hands the rows to goodify's private form.  An element
        outside the neighborhood refuses at once, before later elements are
        evaluated; zero elements never refuse."""
        zero = q2("0")
        calls = []
        value_row = MonomialPlace.value_row

        def counted(self, f):
            calls.append(f)
            return value_row(self, f)

        handed = []
        inner = approx._goodify

        def spy(place, elems, shape, rows):
            handed.append(rows)
            return inner(place, elems, shape, rows)

        monkeypatch.setattr(MonomialPlace, "value_row", counted)
        monkeypatch.setattr(approx, "_goodify", spy)
        cases = [
            (P_SQRT, [zero, q2("x1+x2"), q2("x1^2/x2")], [q2("x1"), zero],
             TargetShape("preserve_residues", "discrete")),
            (P_23, [q2("x1*x2+1")], [zero, q2("x2")], TargetShape("preserve_residues", "discrete")),
            (P_10, [q2("x1"), q2("x2+1")], [q2("x1^2"), q2("x1*(x2+1)")],
             TargetShape("preserve_values", "composite_drop", r1=2, d1=0)),
        ]
        for place, A, B, shape in cases:
            calls.clear()
            handed.clear()
            density_witness(place, A, B, shape)
            nonzero = [f for f in A + B if not f.is_zero()]
            assert calls[:len(nonzero)] == nonzero
            assert handed == [[value_row(place, f) for f in nonzero]]
        # refused at the first element outside: -, or 0 in B
        handed.clear()
        for A, B in (([q2("x1"), q2("1/x1"), q2("x2")], []),
                     ([q2("x1")], [q2("x2"), q2("1"), q2("x1")]),
                     ([], [q2("x1"), q2("x2/x1^2")])):
            calls.clear()
            with pytest.raises(ValueError, match="not in the requested neighborhood"):
                density_witness(P_23, A, B, TargetShape("preserve_residues", "discrete"))
            assert handed == []
            assert len(calls) == next(i + 1 for i, f in enumerate(A + B)
                                      if elem_sign(tower_value(P_23, f)) < (i >= len(A)))
        # zero elements lie in every basic open set
        result = density_witness(P_23, [zero], [zero], TargetShape("preserve_residues", "discrete"))
        assert result.place is P_23 and result.checks == []

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
