"""Seeded random generators shared by the property and acceptance tests."""

from fractions import Fraction

from placeforge import AmbientGroup, BaseField, MonomialPlace, Poly, RatFunc, compose
from placeforge.lattice import clear_denominators

FIELDS = (BaseField(0), BaseField(5))


def monomial_place(field, ambient, weights):
    """The monomial place whose weights are given per variable as per-level
    (a, b) pairs, meaning a + b*sqrt(d); a bare rational a is the pair (a, 0)."""
    rows, den = clear_denominators([
        [(x.numerator, x.denominator)
         for lv in w for x in map(Fraction, lv if isinstance(lv, tuple) else (lv, 0))]
        for w in weights
    ])
    return MonomialPlace(field, len(rows), ambient, rows, den)


def random_fraction(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_pair(rng, span=3, irrational=True):
    """A random level value (a, b); b is drawn first, and only if irrational."""
    b = random_fraction(rng, span) if irrational else Fraction(0)
    return random_fraction(rng, span), b


def random_monomial_place(rng, field, arity, levels=1, irrational=True, zero_frac=0.25):
    ambient = AmbientGroup(tuple(rng.choice([2, 3, 5]) for _ in range(levels)))
    weights = [[(0, 0) if rng.random() < zero_frac else random_pair(rng, irrational=irrational)
                for _ in ambient.ds] for _ in range(arity)]
    return monomial_place(field, ambient, weights)


def random_irrational_place(rng, field, arity, d=2):
    """Monomial place whose weights all have a nonzero sqrt(d) part."""
    weights = []
    for _ in range(arity):
        b = Fraction(0)
        while b == 0:
            b = random_fraction(rng)
        weights.append([(random_fraction(rng), b)])
    return monomial_place(field, AmbientGroup((d,)), weights)


def random_composite_place(rng, field, arity):
    """Integer-weight inner (positive dimension) with a random outer on its gens."""
    inner = random_monomial_place(rng, field, arity, irrational=False)
    k = inner.residue_desc().num_gens
    if k == 0:
        inner = monomial_place(field, inner.ambient, [[0] * inner.ambient.num_levels] * arity)
        k = arity
    outer = random_monomial_place(rng, field, k, irrational=rng.random() < 0.5)
    return compose(inner, outer)


def random_tower(rng, field, arity, irrational_inner, depth=1, nest="inner"):
    """A chain of `depth` + 1 monomial places, each on the residue field of
    the one before: first the innermost (rational weights, or weights that
    all have a sqrt part), then random ones.

    nest="inner" composes the chain from the innermost place up, so the
    composites nest on their inner side; nest="outer" composes it from the
    top down, so they nest on their outer side.  Composition is
    associative, so the same rng state gives the same place either way."""
    if irrational_inner:
        chain = [random_irrational_place(rng, field, arity, d=rng.choice([2, 3, 5]))]
    else:
        chain = [random_monomial_place(rng, field, arity, irrational=False)]
    for _ in range(depth):
        k = chain[-1].residue_desc().num_gens
        chain.append(random_monomial_place(rng, field, k, levels=rng.choice([1, 2]),
                                           irrational=rng.random() < 0.5))
    if nest == "inner":
        tower = chain[0]
        for outer in chain[1:]:
            tower = compose(tower, outer)
    elif nest == "outer":
        tower = chain[-1]
        for inner in reversed(chain[:-1]):
            tower = compose(inner, tower)
    else:
        raise ValueError(f"nest must be 'inner' or 'outer', not {nest!r}")
    return tower


def random_place(rng, field, arity):
    if rng.random() < 0.5:
        return random_monomial_place(rng, field, arity, levels=rng.choice([1, 1, 2]))
    return random_composite_place(rng, field, arity)


def random_poly(rng, field, arity, max_degree=6, max_terms=5, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        budget = rng.randint(0, max_degree)
        e = [0] * arity
        for _ in range(budget):
            e[rng.randrange(arity)] += 1
        c = rng.randint(1, 4) if field.p else random_fraction(rng) or Fraction(1)
        terms[tuple(e)] = c
    p = Poly.make(field, arity, terms)
    if nonzero and p.is_zero():
        return Poly.const(field, arity, 1)
    return p


def random_ratfunc(rng, field, arity, max_degree=6, max_terms=5, nonzero=False):
    num = random_poly(rng, field, arity, max_degree, max_terms, nonzero=nonzero)
    den = random_poly(rng, field, arity, max_degree, max_terms, nonzero=True)
    return RatFunc.make(num, den)
