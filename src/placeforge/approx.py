"""Replace a place by one of a prescribed good class, inside a prescribed
patch neighborhood, preserving the finite data the caller asked for.

The engine is the sign signature: for finitely many elements, everything a
replacement must preserve (which terms are minimal, the ties among them,
the sign of every value) is a finite set of integer sign conditions on the
weight vector.  Rational refinement inside the equality locus then produces
discrete, prime-divisor, or maximal-rank witnesses; a composite tower with
an enumerated outer place handles value-preserving dimension drops.
"""

from __future__ import annotations

from itertools import count
from math import gcd
from operator import mul, sub

from . import lattice
from .ordgroup import (
    AmbientGroup,
    EmbeddingVerdict,
    GroupElem,
    Record,
    check_type,
    order_embedding_check,
    row_sign,
    sqrt_convergents,
)
from .places import (
    InfeasibleShapeError,
    MonomialPlace,
    Place,
    _validate_match,
    compose,
    sign_char,
)

# Refinement steps perturb_weights takes before it gives up.  Each level
# carries its continued-fraction expansion across iterations; what grows is
# the size of the integers.  Seeded goodify and witness inputs converge within
# 3 steps; one that never converges (weighted_rational r1 = 2 on weights
# (1, 0), one or three levels) gives up after 1.5 ms, in process on a 2-vCPU
# x86 machine.
MAX_REFINE_ITER = 64


class SignatureError(ValueError):
    pass


MODES = ("preserve_residues", "preserve_values", "preserve_both")
CLASSES = ("discrete", "weighted_rational", "lex_max_rank", "composite_drop")


class TargetShape(Record):
    """What kind of place to produce and which data to keep."""

    _fields = ("mode", "klass", "r1", "d1")

    def __init__(self, mode: str, klass: str, r1: int = None, d1: int = None):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if klass not in CLASSES:
            raise ValueError(f"unknown class {klass!r}")
        if any(k is not None and type(k) is not int for k in (r1, d1)):  # nor bools
            raise ValueError(f"r1 and d1 must be ints or None, got {r1!r:.20} and {d1!r:.20}")
        if klass == "weighted_rational" and (r1 is None or r1 < 1):
            raise ValueError("weighted_rational needs a rational rank r1 >= 1")
        if klass == "composite_drop":
            if r1 is None or d1 is None:
                raise ValueError("composite_drop needs both d1 and r1")
            if d1 < 0 or r1 < 1:
                raise ValueError("composite_drop needs d1 >= 0 and r1 >= 1")
        f = self.__dict__
        f["mode"], f["klass"], f["r1"], f["d1"] = mode, klass, r1, d1

    @staticmethod
    def from_json(obj) -> "TargetShape":
        """The shape a `shape` object spells: a `class`, maybe a `mode` and ints
        `r1`, `d1` >= 0 (not bools or floats); else a one-line ValueError."""
        known = {"mode", "class", "r1", "d1"}
        if (type(obj) is not dict or "class" not in obj or obj.keys() - known
                or any(type(obj[k]) is not int or obj[k] < 0 for k in ("r1", "d1") if k in obj)):
            raise ValueError("shape must have a class, maybe a mode and ints r1, d1 >= 0, "
                             f"and no other key; got {obj!r:.60}")
        return TargetShape(obj.get("mode", "preserve_residues"), obj["class"],
                           obj.get("r1"), obj.get("d1"))


class SignSignature(Record):
    """Finite sign fingerprint of a place on a list of elements.

    Entries are (integer exponent vector m in the place's variables, sign
    of the value of x^m): each term of a numerator or denominator over one
    minimal term of it (0 for a minimal tie, +1 otherwise), and each
    element's own value.  A place keeping them has the same minimal terms,
    so the same initial forms (the residues preserve_residues keeps) and
    value signs; ties among non-minimal terms stay free.  Vectors are stored
    with lexicographically positive orientation, so no vector can carry two
    signs and the zero vector only ever carries sign 0.  `sources` keeps the
    printed elements the signature came from, and `signs` their value signs.
    """

    _fields = ("entries", "sources", "notices", "signs")

    def __init__(self, entries: frozenset, sources: tuple = (), notices: tuple = (),
                 signs: tuple = ()):
        f = self.__dict__
        f["entries"], f["sources"], f["notices"], f["signs"] = entries, sources, notices, signs

    def equalities(self):
        return [m for m, s in self.entries if s == 0 and any(m)]

    def strict(self):
        return [(m, s) for m, s in self.entries if s != 0]


def signature(place: Place, elems) -> SignSignature:
    """Sign signature of the place on the elements.

    Zero elements are skipped with a notice.  Every sign is decided on the
    integer level rows of the place's flat monomial place (term values are
    a group homomorphism in the exponent, also through a tower); no group
    element is built.  One scan per polynomial finds its first minimal term
    in sorted order; a scan answer against that term is reused, and only
    terms compared before the minimum last moved are asked again: t - 1
    entries and at most 2(t - 1) queries for t terms.  An element's own
    sign is that of its minimal numerator term over its minimal denominator
    term.
    """
    entries = {}
    notices = []
    sources = []
    signs = []

    def add(m, s):
        if m < (0,) * len(m):  # Python orders tuples lexicographically
            m, s = tuple(-x for x in m), -s
        if not any(m) and s != 0:
            raise SignatureError("the zero vector cannot carry a strict sign")
        if entries.setdefault(m, s) != s:
            raise SignatureError(f"conflicting signs for {m}")

    for f in elems:
        _validate_match(place, f)
        if f.is_zero():
            notices.append(f"skipped zero element {f}")
            continue
        sources.append(str(f))
        sides = []
        for poly in (f.num, f.den):
            exps = sorted(poly.terms)
            # known[i] is the sign of v(x^exps[i]) - v(x^exps[best])
            best, known = 0, {}
            for i in range(1, len(exps)):
                s = place.monomial_sign(tuple(map(sub, exps[i], exps[best])))
                if s < 0:
                    known, best = {best: -s}, i
                else:
                    known[i] = s
            for i, e in enumerate(exps):
                if i != best:
                    m = tuple(map(sub, e, exps[best]))
                    add(m, known[i] if i in known else place.monomial_sign(m))
            sides.append(exps[best])
        m = tuple(map(sub, *sides))
        signs.append(place.monomial_sign(m))
        add(m, signs[-1])
    return SignSignature(frozenset(entries.items()), tuple(sources), tuple(notices), tuple(signs))


class PerturbResult(Record):
    _fields = ("place", "iterations")
    # mutable, so assignable and unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, place: MonomialPlace, iterations: int):
        self.place, self.iterations = place, iterations


def _dot(m, q):
    return sum(map(mul, m, q))


def _sign(x):
    return (x > 0) - (x < 0)


def _refined_convergents(d: int):
    """For iterations 0, 1, 2, ...: the first convergent (p, q) of sqrt(d)
    with q >= 2**iteration, from one expansion carried across iterations."""
    convergents = sqrt_convergents(d)
    p, q = next(convergents)
    for iteration in count():
        while q < 1 << iteration:
            p, q = next(convergents)
        yield p, q


def _rational_collapse(place: Place, convs, iteration: int):
    """Rational weight vector approximating the place's weights, as an
    integer row over one positive denominator.

    Per level, sqrt(d) is replaced by its convergent p/q in `convs`, with
    q at least 2**iteration; levels are then combined with
    geometrically decaying positive factors 2**(-iteration * level), so for
    fine enough iteration every lexicographic sign condition transfers to
    the rational vector.  The denominator is the flat place's times every
    q times the last level's decay.
    """
    flat = place.flat_place
    den = flat._den << (iteration * (len(convs) - 1))
    for _, q in convs:
        den *= q
    row = [0] * place.arity
    for lv, (p, q) in enumerate(convs):
        scale = den // (flat._den * q << (iteration * lv))
        for i, r in enumerate(flat._rows):
            a, b = r[2 * lv], r[2 * lv + 1]
            if a or b:
                row[i] += (a * q + b * p) * scale
    return row, den


def _max_rank_levels(ints):
    """`ints` followed by a unit tie-break level for every column except
    the first where `ints` is nonzero.

    The kernel of the nonzero vector `ints` projects onto a set of columns
    with full rank exactly when `ints` is nonzero off that set; appending a
    unit level for each of these columns kills the kernel and adds exactly
    one convex jump per level, so the place has maximal rank and dim 0.
    """
    n = len(ints)
    lead = next(i for i, w in enumerate(ints) if w)
    return [ints] + [[int(i == c) for i in range(n)] for c in range(n) if c != lead]


def _build_monomial(field, n, level_rows, den=1):
    """Monomial place with one rational lex level per integer row of
    `level_rows`, all over the denominator `den`."""
    rows = [[x for level in level_rows for x in (level[i], 0)] for i in range(n)]
    return MonomialPlace(field, n, AmbientGroup((2,) * len(level_rows)), rows, den)


def perturb_weights(sig: SignSignature, place: Place, shape: TargetShape) -> PerturbResult:
    """New weights in the target class matching every signature sign.

    Equalities hold exactly at every step because the rational collapse is
    a combination of the coordinate vectors that satisfy them; the strict
    conditions are open, so refining the convergents and the level decay
    must eventually satisfy them all.
    """
    check_type(sig, SignSignature), check_type(place, Place), check_type(shape, TargetShape)
    if shape.klass == "composite_drop":
        raise ValueError("composite_drop is handled by the tower construction")
    n = place.arity
    strict = sig.strict()
    equalities = sig.equalities()

    if shape.klass == "lex_max_rank" and equalities:
        raise InfeasibleShapeError(
            "a maximal-rank place has trivial kernel and cannot preserve "
            f"the tie {equalities[0]}"
        )
    if shape.klass == "weighted_rational" and shape.r1 > 2:
        raise InfeasibleShapeError(
            "archimedean levels carry rational rank at most 2 here; "
            f"r1 = {shape.r1} is out of reach"
        )

    last_reason = "no candidate satisfied the strict sign conditions"
    levels = [_refined_convergents(d) for d in place.ambient.ds]
    for iteration in range(MAX_REFINE_ITER + 1):
        row, den = _rational_collapse(place, [next(lv) for lv in levels], iteration)
        if not strict and not any(row):
            # Nothing pins the direction; any nonzero vector of the
            # equality subspace serves (the strict set is empty).
            row, den = _equality_subspace_vector(equalities, n), 1
            if row is None:
                raise InfeasibleShapeError(
                    "the ties force every weight to zero; no nontrivial "
                    "place preserves them"
                )
        # A positive rescaling keeps every sign: test on the primitive
        # vector.  It is nonzero past the test, since a strict sign needs a
        # nonzero vector and, with none, a zero collapse was replaced above.
        g = gcd(*row) or 1
        ints = [x // g for x in row]
        if any(_sign(_dot(m, ints)) != s for m, s in strict):
            last_reason = "sign refinement still converging"
            continue
        candidate, reason = _assemble(place.field, n, ints, row, den, shape, place, iteration)
        if candidate is None:
            last_reason = reason
            continue
        if _signature_holds(candidate, sig):
            return PerturbResult(candidate, iteration)
        last_reason = "candidate broke a signature sign; refining"
    raise InfeasibleShapeError(
        f"no admissible weights within MAX_REFINE_ITER = {MAX_REFINE_ITER} refinement steps: "
        f"{last_reason}"
    )


def _equality_subspace_vector(equalities, n):
    """First integer basis vector of {w : m . w = 0 for all equality
    vectors m}, or None when that space is zero."""
    cols = [[m[i] for m in equalities] for i in range(n)]
    basis = lattice.row_kernel(cols)
    return list(basis[0]) if basis else None


def _signature_holds(place: MonomialPlace, sig: SignSignature) -> bool:
    for m, s in sig.entries:
        if place.monomial_sign(m) != s:
            return False
    return True


def _assemble(field, n, ints, row, den, shape: TargetShape, place: Place, iteration: int):
    """Turn a sign-correct rational vector, `row` over `den` with primitive
    direction `ints`, into a place of the target class."""
    if shape.klass == "discrete":
        return _build_monomial(field, n, [ints]), None

    if shape.klass == "weighted_rational":
        if shape.r1 == 1:
            return _build_monomial(field, n, [row], den), None
        # r1 == 2: keep an exact sqrt component inside the equality locus.
        return _rank_two_candidate(field, n, row, den, place, iteration)

    if shape.klass == "lex_max_rank":
        return _build_monomial(field, n, _max_rank_levels(ints)), None

    raise ValueError(f"unhandled class {shape.klass!r}")


def _rank_two_candidate(field, n, qrow, qden, place: Place, iteration: int):
    """Archimedean rank-2 weights: q = `qrow` / `qden` plus a small exact
    sqrt(d) direction.

    The irrational direction is taken from the place's own level data so
    every signature equality still vanishes on it.
    """
    flat = place.flat_place
    # Row i is q_i + 2**-iteration * direction_i * sqrt(d), the direction the
    # first level's b (then a) column; rank 2 iff q and it are independent.
    den = qden * flat._den << iteration
    for col in (1, 0):
        rows = [(x * flat._den << iteration, r[col] * qden) for x, r in zip(qrow, flat._rows)]
        if lattice.int_rank(rows) == 2:
            return MonomialPlace(field, n, AmbientGroup(place.ambient.ds[:1]), rows, den), None
    return None, "no independent direction available for rational rank 2"


# ---------------------------------------------------------------------------


def _class_invariant_report(place: Place, shape: TargetShape):
    """Does the place already satisfy the target class?  (None = yes.)"""
    inv = place.invariants()
    if shape.klass == "discrete":
        return None if inv.discrete else "value group is not isomorphic to Z"
    if shape.klass == "weighted_rational":
        if inv.rr != shape.r1:
            return f"rational rank is {inv.rr}, target r1 = {shape.r1}"
        if inv.rank != 1:
            return "value group is not archimedean"
        return None
    if shape.klass == "lex_max_rank":
        return None if inv.maximal_rank else f"rank is {inv.rank}, not {place.arity}"
    if shape.klass == "composite_drop":
        if inv.dim != shape.d1:
            return f"dimension is {inv.dim}, target d1 = {shape.d1}"
        if inv.rr != shape.r1:
            return f"rational rank is {inv.rr}, target r1 = {shape.r1}"
        return None
    raise ValueError(shape.klass)


class GoodifyResult(Record):
    _fields = ("place", "iota", "iterations", "checks", "notices")
    # mutable, so assignable and unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, place: Place, iota: dict = None, iterations: int = 0, checks: list = None,
                 notices: tuple = ()):
        self.place, self.iota, self.iterations = place, iota, iterations
        self.checks, self.notices = checks, notices

    def report(self):
        out = {
            "place": self.place.to_json(),
            "iota": self.iota,
            "iterations": self.iterations,
            "checks": self.checks or [],
        }
        if self.notices:
            out["notices"] = list(self.notices)
        return out


def _check(text, sign_q, sign_p, residue_equal=None):
    """One entry of a report's checks: an element, its value sign under the
    old and the new place, and whether its residues agree (None when its
    value is not 0, so it has no residue to compare)."""
    return {"elem": text, "sign_q": sign_char(sign_q), "sign_p": sign_char(sign_p),
            "residue_equal": residue_equal}


def _residue_checks(old: Place, new: Place, nonzero, texts, old_signs):
    """One check per nonzero element.  `texts` are the elements printed and
    `old_signs` their value signs under `old`, each computed once per call
    by the caller (the signature holds both).  On `new` one term scan of
    each element gives both its value sign and its initial form; `old`'s
    initial form is taken only for value 0.

    The initial form, the minimal-value terms of numerator and denominator,
    is a basis-free fingerprint of the residue: two places assign an
    element equal residues (under the generator matching induced by their
    kernel lattices) exactly when its initial forms under both agree."""
    checks = []
    for f, text, sq in zip(nonzero, texts, old_signs):
        sp, form = new.sign_and_initial_form(f)
        residue_equal = old.sign_and_initial_form(f)[1] == form if sq == 0 else None
        checks.append(_check(text, sq, sp, residue_equal))
    return checks


def _identity_checks(nonzero, signs):
    """The residue checks of a place kept as its own replacement: the value
    sign of each nonzero element, which the caller already has, serves both
    sides, and a residue is compared (with itself, so equal) exactly when
    that sign is 0."""
    return [_check(str(f), s, s, True if s == 0 else None) for f, s in zip(nonzero, signs)]


def _iota_witnesses(count: int):
    """Unit vectors and pairwise differences: the prescribed combinations,
    each a copy of one zero list with one or two entries set."""
    zero = [0] * count
    out = []
    for i in range(count):
        w = zero.copy()
        w[i] = 1
        out.append(tuple(w))
    for i in range(count):
        for j in range(i + 1, count):
            w = zero.copy()
            w[i], w[j] = 1, -1
            out.append(tuple(w))
    return out


def _iota_json(sources, images, witnesses, verdict: EmbeddingVerdict):
    src_amb = sources[0].ambient if sources else None
    img_amb = images[0].ambient if images else None
    return {
        "sources": [s.to_json() for s in sources],
        "source_levels": src_amb.to_json()["levels"] if src_amb else [],
        "images": [s.to_json() for s in images],
        "image_levels": img_amb.to_json()["levels"] if img_amb else [],
        "witnesses": [list(w) for w in witnesses],
        "verdict": verdict.status,
    }


def goodify(place: Place, elems, shape: TargetShape) -> GoodifyResult:
    """Produce a place of the target class preserving the requested data.

    preserve_residues: residues of all value-zero elements and the sign of
    every value.  preserve_both: additionally the values themselves, via an
    order embedding; for places already carrying finitely generated data
    this forces the identity.  preserve_values (composite_drop): values are
    preserved through an embedding into a composite tower whose outer place
    is chosen by deterministic enumeration.
    """
    check_type(place, Place), check_type(shape, TargetShape)
    return _goodify(place, [_validate_match(place, f) for f in elems], shape, None)


def _goodify(place: Place, elems, shape: TargetShape, rows):
    """goodify, given the value rows of the nonzero elements under `place`
    in order (None: computed here, on the paths that read them)."""
    nonzero = [f for f in elems if not f.is_zero()]

    if shape.mode == "preserve_both":
        reason = _class_invariant_report(place, shape)
        if reason is not None:
            raise InfeasibleShapeError(
                f"preserve_both forces the identity on this input, but {reason}"
            )
        sources = [place.value(f) for f in nonzero]
        witnesses = _iota_witnesses(len(sources))
        # The identity is an order embedding: nothing to check.
        return GoodifyResult(
            place,
            iota=_iota_json(sources, sources, witnesses, EmbeddingVerdict("ok")),
            iterations=0,
            checks=_identity_checks(nonzero, [v.sign() for v in sources]),
        )

    if shape.mode == "preserve_values" or shape.klass == "composite_drop":
        if shape.mode != "preserve_values" or shape.klass != "composite_drop":
            raise InfeasibleShapeError(
                "value preservation with a dimension drop needs mode "
                "preserve_values and class composite_drop together"
            )
        return _goodify_composite_drop(place, nonzero, shape, rows)

    if _class_invariant_report(place, shape) is None:
        # Already in the target class: the place is its own replacement.
        ds = place.ambient.ds
        signs = [row_sign(r, ds) for r in rows or map(place.value_row, nonzero)]
        return GoodifyResult(place, iota=None, iterations=0,
                             checks=_identity_checks(nonzero, signs))

    sig = signature(place, elems)
    result = perturb_weights(sig, place, shape)
    checks = _residue_checks(place, result.place, nonzero, sig.sources, sig.signs)
    for entry in checks:
        if entry["sign_q"] != entry["sign_p"]:
            raise AssertionError(f"sign preservation failed on {entry['elem']}")
        if entry["residue_equal"] is False:
            raise AssertionError(f"residue preservation failed on {entry['elem']}")
    return GoodifyResult(
        result.place,
        iota=None,
        iterations=result.iterations,
        checks=checks,
        notices=sig.notices,
    )


def _goodify_composite_drop(place: Place, nonzero, shape: TargetShape, rows):
    inv = place.invariants()
    n = place.arity
    if inv.dim == 0:
        raise InfeasibleShapeError("composite_drop needs a place of positive dimension")
    if shape.r1 != inv.rr + 1:
        raise InfeasibleShapeError(
            f"the tower adds one convex copy of Z: r1 must be rr + 1 = {inv.rr + 1}, "
            f"got {shape.r1}"
        )
    if shape.d1 != n - shape.r1:
        raise InfeasibleShapeError(
            f"monomial towers satisfy dim + rr = {n} exactly; d1 must be "
            f"{n - shape.r1}, got {shape.d1}"
        )

    den = place.flat_place._den
    values = [GroupElem.from_row(place.ambient, r, den)
              for r in rows or map(place.value_row, nonzero)]
    witnesses = _iota_witnesses(len(values))

    # The outer place gives weight 1 to one consumed generator.  A larger
    # weight c scales the outer part of every image by c, which changes no
    # order-embedding verdict.  The assignment is well defined (no verdict
    # "ill_defined") exactly when every corrected unit stays a unit.
    k = inv.dim
    field = place.field
    for attempt, consumed in enumerate(range(k), start=1):
        level = [1 if i == consumed else 0 for i in range(k)]
        tower = compose(place, _build_monomial(field, k, [level]))
        images = [tower.value(f) for f in nonzero]
        verdict = order_embedding_check(values, images, witnesses)
        if not verdict.ok:
            continue
        return GoodifyResult(
            tower,
            iota=_iota_json(values, images, witnesses, verdict),
            iterations=attempt,
            checks=[_check(str(f), v_old.sign(), v_new.sign())
                    for f, v_old, v_new in zip(nonzero, values, images)],
        )
    raise InfeasibleShapeError(
        "no origin-centered outer place keeps every corrected unit a unit; "
        "this input needs a generically centered outer place, which is out of scope"
    )


def density_witness(place: Place, finite_on, vanishing_on, shape: TargetShape) -> GoodifyResult:
    """A place of the target class in the given patch neighborhood of `place`.

    Sign preservation of all the defining elements implies membership, so
    this is residue-preserving goodification over their union (value
    preservation through the tower, for the composite class).  Each nonzero
    element is evaluated on `place` once, in order: its value row's sign
    decides membership (v >= 0 on `finite_on`, v > 0 on `vanishing_on`),
    and goodify reuses the rows.  Membership of the result is read off
    goodify's checks, whose `sign_p` is each nonzero element's value sign
    on the result place, in order; a zero element lies in every basic open set.
    """
    check_type(place, Place), check_type(shape, TargetShape)
    finite_on, vanishing_on = ([_validate_match(place, f) for f in elems]
                               for elems in (finite_on, vanishing_on))
    ds = place.ambient.ds
    rows = []
    for elems, refused in ((finite_on, (-1,)), (vanishing_on, (-1, 0))):
        for f in elems:
            if not f.is_zero():
                rows.append(place.value_row(f))
                if row_sign(rows[-1], ds) in refused:
                    raise ValueError("the starting place is not in the requested neighborhood")
    mode = "preserve_values" if shape.klass == "composite_drop" else "preserve_residues"
    shape = TargetShape(mode=mode, klass=shape.klass, r1=shape.r1, d1=shape.d1)
    result = _goodify(place, finite_on + vanishing_on, shape, rows)
    checks = iter(result.checks)
    for elems, refused in ((finite_on, ("-",)), (vanishing_on, ("-", "0"))):
        for f in elems:
            if not f.is_zero() and next(checks)["sign_p"] in refused:
                raise AssertionError("sign preservation should have implied membership")
    return result
