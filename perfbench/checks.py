"""Correctness checks, run after the timed window.

Values of monomial places are compared with `oracle_value` from
`tests/oracles.py`; ranks come from `oracles.fraction_rank`; minima,
products and signs are recomputed with `exact`.  Each check returns a list
of messages, empty when the output is right.
"""

from fractions import Fraction

import exact
from oracles import elem_sign, fraction_rank, oracle_value, values_agree


def expected_invariants(obj):
    """(dim, rr, rank) of a place given as JSON, from Fraction elimination."""
    if obj["kind"] == "monomial":
        ds, weights = exact.weights_from_json(obj)
        rows = exact.qrows(weights)
        rr = fraction_rank(rows)
        return obj["arity"] - rr, rr, exact.convex_rank_rows(rows, len(ds), fraction_rank)
    inner_dim, inner_rr, _ = expected_invariants(obj["inner"])
    outer_dim, outer_rr, _ = expected_invariants(obj["outer"])
    if inner_dim != obj["outer"]["arity"]:
        raise ValueError("outer arity differs from the inner dimension")
    li = len(obj["inner"]["ambient"]["levels"])
    lo = len(obj["outer"]["ambient"]["levels"])
    _, inner_w = exact.weights_from_json(obj["inner"])
    _, outer_w = exact.weights_from_json(obj["outer"])
    zero = lambda k: ((Fraction(0), Fraction(0)),) * k
    gens = [w + zero(lo) for w in inner_w] + [zero(li) + w for w in outer_w]
    rows = exact.qrows(gens)
    return outer_dim, inner_rr + outer_rr, exact.convex_rank_rows(rows, li + lo, fraction_rank)


def check_invariants(obj, inv):
    dim, rr, rank = expected_invariants(obj)
    got = (inv["dim"], inv["rr"], inv["rank"])
    errors = []
    if got != (dim, rr, rank):
        errors.append(f"invariants (dim, rr, rank) = {got}, expected {(dim, rr, rank)}")
    n = obj["arity"] if obj["kind"] == "monomial" else obj["inner"]["arity"]
    if obj["kind"] == "monomial" and inv["dim"] + inv["rr"] != n:
        errors.append("monomial place with dim + rr != n")
    if inv["dim"] + inv["rr"] > n:
        errors.append("Abhyankar inequality violated")
    return errors


def oracle_sign(place, f):
    return elem_sign(oracle_value(place, f))


def residue_class(pf, r):
    """'inf', '0' or 'unit' for a residue output."""
    if r is pf.INFINITY:
        return "inf"
    return "0" if r.is_zero() else "unit"


SIGN_TO_RESIDUE = {1: "0", -1: "inf", 0: "unit"}


def check_evaluate_place(pf, bench, spec, pi, outputs, index):
    """Checks of one place's operations; returns (op indices, message) pairs.

    outputs: one per operation of the round; index: op tuple -> position.
    """
    obj, tower = spec["places"][pi], spec["towers"][pi]
    place, elems = bench.places[pi], bench.elems[pi]
    p, ds = place.field.p, list(place.ambient.ds)
    value = lambda ei: outputs[index[("value", pi, ei)]]
    residue = lambda ei: outputs[index[("residue", pi, ei)]]
    at = lambda kind, *eis: [index[(kind, pi, ei)] for ei in eis]
    errors = []
    signs = []
    for ei, f in enumerate(elems):
        oracle = oracle_value(place, f)
        s = elem_sign(oracle)
        signs.append(s)
        if not tower and not values_agree(value(ei), oracle):
            errors.append((at("value", ei), "value differs from the oracle"))
        if residue_class(pf, residue(ei)) != SIGN_TO_RESIDUE[s]:
            errors.append((at("residue", ei), f"residue does not match oracle sign {s}"))
    vals = [exact.from_elem(value(ei)) for ei in range(len(elems))]
    # element layout (workloads.ELEM_LAYOUT): g1, g2, z1, z2, g1*g2, g1+g2, z1*z2
    if tower:
        for a, b, prod in ((0, 1, 4), (2, 3, 6)):
            if exact.lex_sign(exact.vec_sub(vals[prod], exact.vec_add(vals[a], vals[b])), ds):
                errors.append((at("value", prod), "tower value is not additive: v(fg) != v(f) + v(g)"))
        low = vals[1] if exact.lex_sign(exact.vec_sub(vals[1], vals[0]), ds) < 0 else vals[0]
        if exact.lex_sign(exact.vec_sub(vals[5], low), ds) < 0:
            errors.append((at("value", 5), "tower value breaks the ultrametric inequality"))
    if signs[2] == signs[3] == 0:
        r1, r2, r12 = residue(2), residue(3), residue(6)
        num = exact.poly_mul(r1.num.terms, r2.num.terms, p)
        den = exact.poly_mul(r1.den.terms, r2.den.terms, p)
        if not exact.fractions_equal(num, den, r12.num.terms, r12.den.terms, p):
            errors.append((at("residue", 6), "residue is not multiplicative on a value-zero pair"))
    for message in check_invariants(obj, outputs[index[("classify", pi)]].to_json()):
        errors.append(([index[("classify", pi)]], message))
    return errors


def target_errors(shape, obj):
    """Does the place JSON obj belong to the target class of `shape`?"""
    dim, rr, rank = expected_invariants(obj)
    klass, mode = shape["class"], shape.get("mode")
    n = obj["arity"] if obj["kind"] == "monomial" else obj["inner"]["arity"]
    if klass == "composite_drop":
        ok = obj["kind"] == "composite" and rr == shape["r1"] and dim == shape["d1"]
    elif obj["kind"] != "monomial":
        ok = False
    elif klass == "discrete":
        ok = rr == 1 and rank == 1
    elif klass == "weighted_rational":
        ok = rr == shape["r1"] and rank == 1
    elif klass == "lex_max_rank":
        ok = rr == n and rank == n and dim == 0
    else:
        ok = False
    return [] if ok else [f"result is not of class {klass} ({mode}): dim {dim}, rr {rr}, rank {rank}"]


def initial_form(obj, f):
    """Minimal terms of numerator and denominator, recomputed from weights."""
    ds, weights = exact.weights_from_json(obj)
    out = []
    for poly in (f.num, f.den):
        mins, _ = exact.min_terms(weights, ds, sorted(poly.terms))
        out.append({e: poly.terms[e] for e in mins})
    return out


def check_replace(pf, inputs, shape, start_obj, report):
    """inputs: (A, B) for a witness, (elems,) for goodify; report: result JSON."""
    new_obj = report["place"]
    new = pf.place_from_json(new_obj)
    start = pf.place_from_json(start_obj)
    errors = target_errors(shape, new_obj)
    if shape.get("mode") == "preserve_both" and new_obj != start_obj:
        errors.append("preserve_both did not return the identity")
    if len(inputs) == 2:
        finite_on, vanishing_on = inputs
        elems = finite_on + vanishing_on
        for f in finite_on:
            if oracle_sign(new, f) < 0:
                errors.append(f"A element {f} has negative value")
        for f in vanishing_on:
            if oracle_sign(new, f) <= 0:
                errors.append(f"B element {f} is not positive")
    else:
        (elems,) = inputs
    for f in elems:
        s = oracle_sign(start, f)
        if oracle_sign(new, f) != s:
            errors.append(f"sign of {f} not preserved")
        if s == 0 and new_obj["kind"] == "monomial":
            if initial_form(start_obj, f) != initial_form(new_obj, f):
                errors.append(f"initial form of {f} not preserved")
    iota = report.get("iota")
    if iota is not None and iota.get("verdict") != "ok":
        errors.append(f"iota verdict {iota.get('verdict')}")
    return errors


SIGN_CHAR = {1: "+", 0: "0", -1: "-"}


def check_cli_report(pf, job, report):
    """Checks of one seeded CLI job's report against its job spec."""
    command = job["command"]
    if command in ("value", "residue"):
        place = pf.place_from_json(job["place"])
        errors = []
        for text, res in zip(job["elems"], report["results"]):
            oracle = oracle_value(place, pf.parse_expr(text, place.arity, place.field))
            s = elem_sign(oracle)
            if command == "value":
                got = tuple((Fraction(c["a"]), Fraction(c["b"])) for c in res["value"])
                if got != exact.from_elem(oracle) or res["sign"] != SIGN_CHAR[s]:
                    errors.append(f"value of {text} differs from the oracle")
            else:
                r = res["residue"]
                kind = "inf" if r == "infinity" else "0" if r == "0" else "unit"
                if kind != SIGN_TO_RESIDUE[s]:
                    errors.append(f"residue of {text} does not match oracle sign {s}")
        if len(report["results"]) != len(job["elems"]):
            errors.append("missing results")
        if command == "residue" and len(report["generators"]) != expected_invariants(job["place"])[0]:
            errors.append("residue field has the wrong number of generators")
        return errors
    if command == "classify":
        return check_invariants(job["place"], report["invariants"])
    if command == "compose":
        tower = {"kind": "composite", "inner": job["place"], "outer": job["outer"]}
        return check_invariants(tower, report["invariants"])
    if command in ("goodify", "witness"):
        place = pf.place_from_json(job["place"])
        parse = lambda key: [pf.parse_expr(t, place.arity, place.field) for t in job.get(key, [])]
        inputs = (parse("A"), parse("B")) if command == "witness" else (parse("elems"),)
        return check_replace(pf, inputs, job["shape"], job["place"], report)
    if command == "check-axioms":
        return [] if report.get("result") == "pass" else [f"axiom check failed: {report}"]
    return [f"unknown command {command}"]
