"""Seeded generation of each workload's operation list.

Everything here runs before any clock starts.  The output is serialized
(place JSON, expression text, job specs), so the timed process receives
only what a user of the library would hand it.  The make-up of every list
is fixed per workload (strata cycle deterministically); the seed only
draws the numbers inside each stratum, so the mix never depends on the
seed or on speed.
"""

import json
import random
from fractions import Fraction

import exact

FIELDS = (0, 5)
RADICANDS = (2, 3, 5)

# evaluate: places per kind; each place carries ELEM_LAYOUT elements
EVAL_MONOMIAL = 60
EVAL_TOWERS = 60
ELEM_LAYOUT = ("g1", "g2", "z1", "z2", "g1*g2", "g1+g2", "z1*z2")

# replace: (entry point, target) strata, each drawn for every arity
REPLACE_KINDS = (
    ("witness", "discrete"),
    ("goodify", "discrete"),
    ("witness", "weighted_rational_1"),
    ("goodify", "weighted_rational_1"),
    ("witness", "weighted_rational_2"),
    ("goodify", "weighted_rational_2"),
    ("witness", "lex_max_rank"),
    ("goodify", "lex_max_rank"),
    ("goodify", "preserve_both"),
    ("witness", "composite_drop"),
    ("goodify", "composite_drop"),
)
REPLACE_ARITIES = (2, 3, 4, 5, 6)
DROP_ARITIES = (3, 4, 5, 6, 3)
REPLACE_DRAWS = 2  # inputs per (kind, arity) stratum

# cli: seeded jobs per command, run after the golden jobs of tests/jobs
CLI_SEEDED_PER_COMMAND = 2


def frac_str(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def rand_frac(rng, span=3, nonzero=False):
    while True:
        f = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if f or not nonzero:
            return f


def rand_coeff(rng, p):
    if p:
        return rng.randint(1, p - 1)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


def rand_poly(rng, n, p, lo, hi, max_deg):
    terms = {}
    want = rng.randint(lo, hi)
    while len(terms) < want:
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(n)] += 1
        terms[tuple(e)] = rand_coeff(rng, p)
    return terms


def mono_text(e):
    parts = []
    for i, x in enumerate(e):
        if x == 1:
            parts.append(f"x{i + 1}")
        elif x:
            parts.append(f"x{i + 1}^{x}")
    return "*".join(parts)


def poly_text(terms):
    out = []
    for e, c in sorted(terms.items()):
        c = Fraction(c)
        mag = frac_str(abs(c))
        mono = mono_text(e)
        body = (mono if mag == "1" else f"{mag}*{mono}") if mono else mag
        if not out:
            out.append(f"-{body}" if c < 0 else body)
        else:
            out.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(out)


def place_json(p, ds, weights):
    return {
        "kind": "monomial",
        "base": {"p": p} if p else "Q",
        "arity": len(weights),
        "ambient": {"levels": [{"d": d} for d in ds]},
        "weights": [[{"a": frac_str(a), "b": frac_str(b)} for a, b in w] for w in weights],
    }


def rand_weights(rng, n, levels, irrational_share=0.85, zero_share=0.15):
    weights = []
    for _ in range(n):
        w = []
        for _ in range(levels):
            if rng.random() < zero_share:
                w.append((Fraction(0), Fraction(0)))
            elif rng.random() < irrational_share:
                w.append((rand_frac(rng), rand_frac(rng, nonzero=True)))
            else:
                w.append((rand_frac(rng, nonzero=True), Fraction(0)))
        weights.append(tuple(w))
    return weights


def effective_weights(pf, obj):
    """Per-variable values of a place (through the library) as plain tuples."""
    place = pf.place_from_json(obj)
    vals = [
        exact.from_elem(place.value(pf.RatFunc.variable(place.field, place.arity, i)))
        for i in range(place.arity)
    ]
    return list(place.ambient.ds), vals


def value_zero_text(rng, n, p, ds, weights):
    """g * x^eh / (h * x^eg): value zero because eg, eh minimize g, h."""
    g = rand_poly(rng, n, p, 3, 3, 5)
    h = rand_poly(rng, n, p, 2, 2, 5)
    (eg, *_), _ = exact.min_terms(weights, ds, sorted(g))
    (eh, *_), _ = exact.min_terms(weights, ds, sorted(h))
    num = f"({poly_text(g)})" + (f"*{mono_text(eh)}" if any(eh) else "")
    den = f"({poly_text(h)})" + (f"*{mono_text(eg)}" if any(eg) else "")
    return f"{num}/({den})"


def general_text(rng, n, p, num_terms=(3, 3), den_terms=(2, 2), max_deg=6):
    num = rand_poly(rng, n, p, *num_terms, max_deg)
    den = rand_poly(rng, n, p, *den_terms, max_deg)
    return f"({poly_text(num)})/({poly_text(den)})"


def element_set(rng, n, p, ds, weights):
    g1, g2 = general_text(rng, n, p), general_text(rng, n, p)
    z1 = value_zero_text(rng, n, p, ds, weights)
    z2 = value_zero_text(rng, n, p, ds, weights)
    return [g1, g2, z1, z2, f"({g1})*({g2})", f"({g1})+({g2})", f"({z1})*({z2})"]


def rand_tower(pf, rng, n, p, irrational_inner):
    d = rng.choice(RADICANDS)
    if irrational_inner:
        inner_w = [((rand_frac(rng), rand_frac(rng, nonzero=True)),) for _ in range(n)]
    else:
        inner_w = [((rand_frac(rng) if rng.random() > 0.25 else Fraction(0), Fraction(0)),)
                   for _ in range(n)]
        if not any(w[0][0] for w in inner_w):
            inner_w[rng.randrange(n)] = ((Fraction(1), Fraction(0)),)
    inner = place_json(p, [d], inner_w)
    k = pf.place_from_json(inner).residue_desc().num_gens
    outer = place_json(p, [rng.choice(RADICANDS)], rand_weights(rng, k, 1, zero_share=0.1))
    return {"kind": "composite", "inner": inner, "outer": outer}


def evaluate_inputs(pf, seed):
    """Monomial places (1-3 levels) and two-place towers, each with
    ELEM_LAYOUT elements; every element gets a value and a residue call and
    every place one classify call."""
    rng = random.Random(f"evaluate:{seed}")
    places, elems, towers = [], [], []
    for i in range(EVAL_MONOMIAL):
        p = FIELDS[i % 2]
        levels = 1 + (i // 2) % 3
        n = 2 + (i // 6) % 5
        ds = [rng.choice(RADICANDS) for _ in range(levels)]
        weights = rand_weights(rng, n, levels)
        places.append(place_json(p, ds, weights))
        elems.append(element_set(rng, n, p, ds, weights))
        towers.append(False)
    for i in range(EVAL_TOWERS):
        p = FIELDS[i % 2]
        n = 2 + (i // 2) % 5
        irrational_inner = n >= 3 and (i // 10) % 2 == 1
        obj = rand_tower(pf, rng, n, p, irrational_inner)
        ds, weights = effective_weights(pf, obj)
        places.append(obj)
        elems.append(element_set(rng, n, p, ds, weights))
        towers.append(True)
    ops = []
    for pi in range(len(places)):
        for ei in range(len(ELEM_LAYOUT)):
            ops.append(["value", pi, ei])
            ops.append(["residue", pi, ei])
        ops.append(["classify", pi])
    rng.shuffle(ops)
    return {"workload": "evaluate", "places": places, "elems": elems,
            "towers": towers, "ops": ops}


def shape_json(target, n):
    if target == "discrete":
        return {"mode": "preserve_residues", "class": "discrete"}
    if target.startswith("weighted_rational_"):
        return {"mode": "preserve_residues", "class": "weighted_rational",
                "r1": int(target[-1])}
    if target == "lex_max_rank":
        return {"mode": "preserve_residues", "class": "lex_max_rank"}
    if target == "preserve_both":
        return {"mode": "preserve_both", "class": "weighted_rational", "r1": 2}
    if target == "composite_drop":
        return {"mode": "preserve_values", "class": "composite_drop", "r1": 3, "d1": n - 3}
    raise ValueError(target)


def irrational_place(rng, n):
    d = rng.choice(RADICANDS)
    weights = [((rand_frac(rng), rand_frac(rng, nonzero=True)),) for _ in range(n)]
    return d, weights


def _nonneg(ds, weights, text_of):
    """An element with value >= 0 (its inverse if the draw was negative)."""
    num, den = text_of()
    vn = exact.min_terms(weights, ds, sorted(num))[1]
    vd = exact.min_terms(weights, ds, sorted(den))[1]
    s = exact.lex_sign(exact.vec_sub(vn, vd), ds)
    if s < 0:
        num, den = den, num
    return s, f"({poly_text(num)})/({poly_text(den)})"


def replace_candidate(rng, kind, n, count, p):
    api, target = kind
    d, weights = irrational_place(rng, n)
    ds = [d]
    if target == "composite_drop":
        # Laurent monomials from a rank-2 sublattice that meets the kernel
        # only in 0, so that an origin-centred tower exists.
        u1, u2 = (tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2))

        def draw():
            a = b = 0
            while not (a or b):
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            e = tuple(a * x + b * y for x, y in zip(u1, u2))
            return {tuple(max(x, 0) for x in e): 1}, {tuple(max(-x, 0) for x in e): 1}
    else:
        sizes = iter([(1 + k % 3, 1 + (k // 3) % 2) for k in range(count)])

        def draw():
            num, den = next(sizes)
            return rand_poly(rng, n, p, num, num, 5), rand_poly(rng, n, p, den, den, 5)
    signed = [_nonneg(ds, weights, draw) for _ in range(count)]
    op = {"api": api, "target": target, "place": place_json(p, ds, weights),
          "shape": shape_json(target, n)}
    if api == "witness":
        op["A"], op["B"] = [], []
        for s, t in signed:
            op["B" if s > 0 and rng.random() < 0.5 else "A"].append(t)
    else:
        op["elems"] = [t for _, t in signed]
    return op


def replace_feasible(pf, op):
    """Run the candidate once; infeasible shapes are redrawn."""
    place = pf.place_from_json(op["place"])
    parse = lambda t: pf.parse_expr(t, place.arity, place.field)
    shape = pf.TargetShape.from_json(op["shape"])
    try:
        if op["target"] == "lex_max_rank":
            elems = [parse(t) for t in op.get("elems", op.get("A", []) + op.get("B", []))]
            if pf.signature(place, elems).equalities():
                return False
        if op["api"] == "witness":
            pf.density_witness(place, [parse(t) for t in op["A"]],
                               [parse(t) for t in op["B"]], shape)
        else:
            pf.goodify(place, [parse(t) for t in op["elems"]], shape)
    except pf.InfeasibleShapeError:
        return False
    return True


def replace_inputs(pf, seed):
    rng = random.Random(f"replace:{seed}")
    ops = []
    for j, kind in enumerate(REPLACE_KINDS):
        arities = DROP_ARITIES if kind[1] == "composite_drop" else REPLACE_ARITIES
        for i, n in enumerate(arities * REPLACE_DRAWS):
            count = 3 + (5 * i + 3 * j) % 14
            p = FIELDS[(i + j) % 2]
            for _ in range(500):
                op = replace_candidate(rng, kind, n, count, p)
                if replace_feasible(pf, op):
                    ops.append(op)
                    break
            else:
                raise RuntimeError(f"no feasible {kind} input of arity {n}")
    rng.shuffle(ops)
    return {"workload": "replace", "ops": ops}


def cli_jobs(pf, seed):
    """Seeded job specs, CLI_SEEDED_PER_COMMAND of each command."""
    rng = random.Random(f"cli:{seed}")
    jobs = []
    for i in range(CLI_SEEDED_PER_COMMAND):
        p = FIELDS[i % 2]
        n = 4 + i
        levels = 1 + i
        ds = [rng.choice(RADICANDS) for _ in range(levels)]
        weights = rand_weights(rng, n, levels)
        place = place_json(p, ds, weights)
        elems = element_set(rng, n, p, ds, weights)
        jobs.append({"command": "value", "place": place, "elems": elems})
        tower = rand_tower(pf, rng, n + 1, p, irrational_inner=i == 1)
        residue_place = place if i == 0 else tower
        ds_r, weights_r = (ds, weights) if i == 0 else effective_weights(pf, tower)
        jobs.append({"command": "residue", "place": residue_place,
                     "elems": element_set(rng, len(weights_r), p, ds_r, weights_r)})
        jobs.append({"command": "classify", "place": tower})
        jobs.append({"command": "compose", "place": tower["inner"], "outer": tower["outer"]})
        jobs.append({"command": "check-axioms", "place": place,
                     "elems": [general_text(rng, n, p, (1, 2), (1, 1), 3) for _ in range(5)]})
        for kind in (("goodify", "discrete"), ("witness", "lex_max_rank")):
            for _ in range(500):
                op = replace_candidate(rng, kind, n, 6 + 2 * i, p)
                if replace_feasible(pf, op):
                    break
            else:
                raise RuntimeError(f"no feasible {kind} job")
            job = {"command": kind[0], "place": op["place"], "shape": op["shape"]}
            for key in ("elems", "A", "B"):
                if key in op:
                    job[key] = op[key]
            jobs.append(job)
    return jobs


def dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
