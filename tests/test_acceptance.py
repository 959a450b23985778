"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -q`; the per-criterion lines are
written straight to the terminal, bypassing capture.
"""

import functools
import json
import pathlib
import random
import time

from placeforge import (
    AmbientGroup,
    BaseField,
    MonomialPlace,
    Subgroup,
    TargetShape,
    check_spv_axioms,
    compose,
    density_witness,
    parse_expr,
    signature,
)
from placeforge import lattice
from placeforge.cli import main as cli_main
from placeforge.parsing import format_ratfunc
from placeforge.ordgroup import align_rows, row_sign

from gen import (
    random_composite_place,
    random_irrational_place,
    random_monomial_place,
    random_place,
    random_ratfunc,
)
from oracles import elem, in_basic_open, oracle_value, values_agree

QQ = BaseField(0)
F5 = BaseField(5)
HERE = pathlib.Path(__file__).parent

CRITERION_LINES = []  # echoed by conftest's terminal summary


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"criterion {num} ({title}): FAIL"
                CRITERION_LINES.append(line)
                print(line, flush=True)
                raise
            elapsed = time.monotonic() - start
            line = f"criterion {num} ({title}): PASS [{elapsed:.1f}s]"
            CRITERION_LINES.append(line)
            print(line, flush=True)
        return run
    return wrap


@criterion(1, "valuation axioms, 1000 pairs under 20 places")
def test_criterion_1_valuation_axioms():
    rng = random.Random(20250801)
    places = {}
    for field in (QQ, F5):
        pool = []
        for i in range(10):
            n = rng.randint(2, 4)
            if i % 2 == 0:
                pool.append(random_monomial_place(rng, field, n, levels=rng.choice([1, 2])))
            else:
                pool.append(random_composite_place(rng, field, n))
        places[field.p] = pool
    start = time.monotonic()
    for i in range(1000):
        field = QQ if i % 2 == 0 else F5
        place = places[field.p][(i // 2) % 10]
        n = place.arity
        f = random_ratfunc(rng, field, n, max_degree=6, max_terms=4, nonzero=True)
        g = random_ratfunc(rng, field, n, max_degree=6, max_terms=4, nonzero=True)
        # value rows share the flat place's denominator, so the laws are
        # integer arithmetic on them
        ds = place.ambient.ds
        rf, rg = place.value_row(f), place.value_row(g)
        # multiplicativity, exactly
        assert place.value_row(f * g) == [a + b for a, b in zip(rf, rg)]
        # ultrametric inequality, equality when the values differ
        s = f + g
        order = row_sign([a - b for a, b in zip(rf, rg)], ds)
        lower = rf if order <= 0 else rg
        if s.is_zero():
            assert order == 0
        else:
            above = row_sign([a - b for a, b in zip(place.value_row(s), lower)], ds)
            assert above >= 0 and (order == 0 or above == 0)
        # residue multiplicativity on value-zero pairs
        if row_sign(rf, ds) == 0 and row_sign(rg, ds) == 0:
            assert (place.residue(f) * place.residue(g)) == place.residue(f * g)
    assert time.monotonic() - start < 60.0


@criterion(2, "independent-values decomposition of the value group")
def test_criterion_2_value_group_decomposition():
    amb = AmbientGroup((2,))
    # the weights 1, sqrt(2), 0, 0 as integer rows (a, b)
    place = MonomialPlace(QQ, 4, amb, [(1, 0), (0, 1), (0, 0), (0, 0)])
    group = Subgroup.from_rows(amb, *align_rows((w.row, w.den) for w in place.weights))
    one, sqrt2 = Subgroup.from_rows(amb, [(1, 0)]), Subgroup.from_rows(amb, [(0, 1)])
    direct_sum = Subgroup.from_rows(amb, one.rows + sqrt2.rows)
    # equal subgroups: one denominator and one HNF basis of the rows
    assert group.den == direct_sum.den
    assert lattice.hnf(group.rows) == lattice.hnf(direct_sum.rows)
    assert len(place.residue_desc().gens) == 2
    assert place.residue_desc().num_gens == 2


@criterion(3, "dimension + rational rank vs transcendence degree, 200 instances")
def test_criterion_3_abhyankar_inequality():
    rng = random.Random(20250803)
    for i in range(200):
        field = QQ if i % 2 == 0 else F5
        n = rng.randint(2, 4)
        if i % 2 == 0:
            place = random_monomial_place(rng, field, n, levels=rng.choice([1, 2]))
            inv = place.invariants()
            assert inv.dim + inv.rr == n
        else:
            place = random_composite_place(rng, field, n)
            inv = place.invariants()
            assert inv.dim + inv.rr <= n


@criterion(4, "composition: rank additivity and convex outer order, 50 pairs")
def test_criterion_4_composition():
    rng = random.Random(20250804)
    done = 0
    while done < 50:
        field = QQ if done % 2 == 0 else F5
        n = rng.randint(2, 4)
        tower = random_composite_place(rng, field, n)
        inner, outer = tower.inner, tower.outer
        assert tower.invariants().rank == inner.invariants().rank + outer.invariants().rank
        kernel = inner.residue_desc().gens
        if kernel:
            from placeforge import RatFunc

            for _ in range(4):
                k1 = kernel[rng.randrange(len(kernel))]
                k2 = kernel[rng.randrange(len(kernel))]
                f = RatFunc.monomial(field, n, k1)
                g = RatFunc.monomial(field, n, k2)
                rf, rg = inner.residue(f), inner.residue(g)
                assert _difference_sign(tower, f, g) == _difference_sign(outer, rf, rg)
        done += 1


def _difference_sign(place, f, g):
    """The sign of v(f) - v(g), on the value rows of nonzero f and g."""
    return row_sign([a - b for a, b in zip(place.value_row(f), place.value_row(g))],
                    place.ambient.ds)


def _witness_instance(seed, klass):
    """Deterministic instance with the starting place inside the neighborhood;
    for the trivial-kernel target, retried until the elements carry no ties."""
    for bump in range(50):
        rng = random.Random(1000 * seed + bump)
        n = rng.randint(2, 4)
        field = QQ if seed % 2 == 0 else F5
        place = random_irrational_place(rng, field, n)
        elems = []
        for _ in range(rng.randint(2, 5)):
            f = random_ratfunc(rng, field, n, max_degree=5, max_terms=3, nonzero=True)
            v = place.value(f)
            if v.sign() < 0:
                f = f.inverse()
            elems.append(f)
        finite_on, vanishing_on = [], []
        for f in elems:
            if place.value(f).sign() > 0 and rng.random() < 0.5:
                vanishing_on.append(f)
            else:
                finite_on.append(f)
        if klass == "lex_max_rank":
            sig = signature(place, elems)
            if sig.equalities():
                continue
        return place, finite_on, vanishing_on
    raise AssertionError("no tie-free instance found")


@criterion(5, "density witnesses, 100 instances across three target classes")
def test_criterion_5_density_witnesses():
    start = time.monotonic()
    shapes = [
        TargetShape("preserve_residues", "discrete"),
        TargetShape("preserve_residues", "weighted_rational", r1=1),
        TargetShape("preserve_residues", "lex_max_rank"),
    ]
    for i in range(100):
        shape = shapes[i % 3]
        place, finite_on, vanishing_on = _witness_instance(i, shape.klass)
        assert in_basic_open(place, finite_on, vanishing_on)
        result = density_witness(place, finite_on, vanishing_on, shape)
        witness = result.place
        assert in_basic_open(witness, finite_on, vanishing_on)
        inv = witness.invariants()
        if shape.klass == "discrete":
            assert inv.discrete
        elif shape.klass == "weighted_rational":
            assert inv.rr == 1
            if len(witness.flat_place.residue_desc().gens) == witness.arity - 1:
                assert inv.prime_divisor
        else:
            assert inv.maximal_rank and inv.rational
        for f in finite_on + vanishing_on:
            if place.value(f).sign() == 0:
                assert place.sign_and_initial_form(f)[1] == witness.sign_and_initial_form(f)[1]
        assert result.iterations <= 64
    assert time.monotonic() - start < 120.0


@criterion(6, "interval oracle agrees on every derived example value")
def test_criterion_6_independent_oracle():
    amb = AmbientGroup((2,))
    p_sqrt = MonomialPlace(QQ, 2, amb, [(1, 0), (0, 1)])
    p_10 = MonomialPlace(QQ, 2, amb, [(1, 0), (0, 0)])
    tower = compose(p_10, MonomialPlace(QQ, 1, amb, [(1, 0)]))

    def q2(text, field=QQ):
        return parse_expr(text, 2, field)

    cases = [
        # min over terms with an irrational tie-break: v = 1 + sqrt2 < 3
        (p_sqrt, q2("x1^3 + x1*x2"), elem(amb, (1, 1))),
        # the section-corrected tower values
        (tower, q2("x2"), elem(tower.ambient, 0, 1)),
        (tower, q2("x1*x2"), elem(tower.ambient, 1, 1)),
        # the neighborhood example: values 1, 2 - sqrt2, 1
        (p_sqrt, q2("x1+x2"), elem(amb, 1)),
        (p_sqrt, q2("x1^2/x2"), elem(amb, (2, -1))),
        (p_sqrt, q2("x1"), elem(amb, 1)),
    ]
    for place, f, expected in cases:
        got = place.value(f)
        assert got == expected
        assert values_agree(got, oracle_value(place, f))
    # and the oracle keeps agreeing away from the worked examples
    rng = random.Random(20250806)
    for _ in range(100):
        field = QQ if rng.random() < 0.5 else F5
        n = rng.randint(2, 4)
        place = random_place(rng, field, n)
        f = random_ratfunc(rng, field, n)
        assert values_agree(place.value(f), oracle_value(place, f))


@criterion(7, "divisibility axioms on 20 random places, exhaustive triples")
def test_criterion_7_spv_axioms():
    rng = random.Random(20250807)
    for i in range(20):
        field = QQ if i % 2 == 0 else F5
        n = rng.randint(2, 3)
        place = random_place(rng, field, n)
        sample = [random_ratfunc(rng, field, n, max_degree=3, max_terms=3) for _ in range(4)]
        sample += [parse_expr("0", n, field), parse_expr("1", n, field)]
        report = check_spv_axioms(place, sample)
        assert report.passed, (place, report)


@criterion(8, "CLI golden files and print-parse idempotence")
def test_criterion_8_cli_determinism(capsys):
    jobs = sorted((HERE / "jobs").glob("*.json"))
    commands_seen = set()
    for job in jobs:
        golden = (HERE / "golden" / job.name).read_text()
        assert cli_main(["--spec", str(job)]) == 0
        out1 = capsys.readouterr().out
        assert cli_main(["--spec", str(job)]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2 == golden
        commands_seen.add(json.loads(golden)["command"])
    assert commands_seen == {
        "value", "residue", "classify", "compose", "goodify", "witness", "check-axioms",
    }
    rng = random.Random(20250808)
    for _ in range(100):
        field = QQ if rng.random() < 0.5 else F5
        n = rng.randint(1, 3)
        f = random_ratfunc(rng, field, n)
        text = format_ratfunc(f)
        again = parse_expr(text, n, field)
        assert (f - again).is_zero()
        assert format_ratfunc(again) == text
