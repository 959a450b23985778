"""Monomial and composite places on rational function fields.

A monomial place assigns each variable a value in an ordered group; the
value of a polynomial is the exact minimum of its term values, the residue
of a value-zero element is the ratio of the surviving initial terms
rewritten in the kernel-lattice coordinates.  Composite places stack a
place on top of the residue field of another; their values live in the
lexicographic concatenation of the two value groups, inner levels dominant.
A tower's value is a monomial valuation in the values of the variables, so
every place evaluates through one flattened monomial place.  Residues take
the same path: the flat place's minimal terms, rewritten over the tower's
residue generators, give a tower's residue at any depth.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, itemgetter, mul

from . import lattice
from ._kernels import term_mins
from .ordgroup import (
    AmbientGroup,
    GroupElem,
    Record,
    Subgroup,
    _add_combination,
    align_rows,
    check_type,
    combine,
    convex_rank,
    quad_sign_int,
    rational_rank,
    rat_from_str,
    row_sign,
)
from .ratfunc import BaseField, Poly, RatFunc


class Infinity:
    """The value of 0: larger than every group element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()


def sign_char(s) -> str:
    """A value sign (1, 0 or -1), or INFINITY, as reports print it."""
    return "inf" if s is INFINITY else "-0+"[s + 1]


# Deepest nesting of composite places: place_from_json refuses a deeper one as
# it descends, and CompositePlace refuses to compose one, so no command prints
# a place that it would refuse as input.  Decoding and classifying build no
# flat place, kernel basis or HNF (a tower adds up its monomial places'
# ranks): a chain of trivial arity-1 places nested on its inner side decodes
# and classifies in about 0.6 ms at depth 32 and 1.3 ms at 64, on the machine
# named below.  Once a tower's flat place is built, a value takes two term_mins
# passes and a residue four (the inner value's sign, then the flat minimal
# terms, which are rewritten once) at every depth.  Building the flat place
# walks every level below, as each level's effective weights take the inner
# section and inner residue of every variable's unit, so the first value and
# residue cost time superlinear in the depth: on that chain over a
# 10-variable, 5-level base, decoding plus the value and residue of x1 + x2
# take about 0.08 s at depth 32, 0.16 s at 48 and 0.26 s at 64, in process on
# a 2-core x86 machine.
MAX_TOWER_DEPTH = 32

# Largest sample check_spv_axioms accepts.  The axioms are checked on every
# triple, so the time grows with the cube of the sample: a check-axioms job
# of short binomials x1^i*x2^j+c on a one-level place takes about 0.35 s
# with 20 elements, 1.2 s with 48, 1.6 s with 60 and 3.8 s with 80, in a
# fresh process on a 2-core x86 machine.  48 keeps a full sample within
# 5 s on a machine 2.5 times slower.
MAX_AXIOM_SAMPLE = 48


class NotInValueGroupError(ValueError):
    pass


class InfeasibleShapeError(ValueError):
    """The target shape conflicts with the data the caller wants preserved.

    Raised by `approx`; defined here so that the CLI can catch it without
    loading `approx` on commands that never reach it."""


class ResidueFieldDesc(Record):
    """Purely transcendental residue field: one Laurent monomial in the
    place's variables per kernel-lattice basis vector (flattened through towers)."""

    _fields = ("gens",)

    def __init__(self, gens: tuple):
        self.__dict__["gens"] = gens

    @property
    def num_gens(self) -> int:
        return len(self.gens)


class PlaceInvariants(Record):
    _fields = ("dim", "rr", "rank", "abhyankar", "discrete", "rational", "prime_divisor",
               "maximal_rank")

    def __init__(self, dim: int, rr: int, rank: int, abhyankar: bool, discrete: bool,
                 rational: bool, prime_divisor: bool, maximal_rank: bool):
        f = self.__dict__
        f["dim"], f["rr"], f["rank"], f["abhyankar"] = dim, rr, rank, abhyankar
        f["discrete"], f["rational"], f["prime_divisor"] = discrete, rational, prime_divisor
        f["maximal_rank"] = maximal_rank

    def to_json(self):
        flags = {k: getattr(self, k) for k in self._fields[3:]}
        return {"dim": self.dim, "rr": self.rr, "rank": self.rank, "flags": flags}


def _validate_match(place: "Place", f: RatFunc) -> RatFunc:
    """f, once it is a RatFunc of the place's function field."""
    if not isinstance(f, RatFunc):
        raise TypeError(f"expected a RatFunc, got {type(f).__name__}")
    field = f.field
    if (field is not place.field and field != place.field) or f.arity != place.arity:
        raise ValueError("element does not live in the place's function field")
    return f


class Place:
    """Common surface of monomial and composite places.

    Every place evaluates through one monomial place, `flat_place`, whose
    `_scan` answers each question about an element (value, value row,
    initial form, residue) with one term scan of its numerator and one of
    its denominator.  Each subclass defines `flat_place`, `value`,
    `residue`, `_raw_section`, `residue_desc`, `residue_dim` (the
    transcendence degree of the residue field, from ranks alone), `_ranks`
    and `to_json`; `Place` holds `monomial_value`, `monomial_sign`,
    `value_row`, `sign_and_initial_form` and `invariants`.  A value's sign
    is `row_sign` of its `value_row`, or comes with the initial form from
    `sign_and_initial_form`.
    """

    field: BaseField
    arity: int
    ambient: AmbientGroup
    # composite places nested on the longest path down from this one
    depth = 0

    def monomial_value(self, evec) -> GroupElem:
        """Value of the Laurent monomial x^evec (a group homomorphism)."""
        return self.flat_place.monomial_value(evec)

    def monomial_sign(self, evec) -> int:
        """Sign of v(x^evec), decided on integers."""
        return self.flat_place.monomial_sign(evec)

    def value_row(self, f: RatFunc):
        """v(f) for nonzero f as an integer row (a_1, b_1, ...) over the
        flat place's denominator; no group element is built."""
        return self.flat_place.value_row(f)

    def sign_and_initial_form(self, f: RatFunc):
        """(sign of v(f), initial form) of the nonzero f from one term scan
        of its numerator and one of its denominator: the difference of their
        minima is v(f), and their minimal terms, one sub-dict per side, are
        the initial form."""
        _validate_match(self, f)
        if f.is_zero():
            raise ValueError("the zero function has no initial form")
        flat = self.flat_place
        sides, row = flat._scan(f)
        return row_sign(row, flat.ambient.ds), tuple(
            {exps[i]: terms[exps[i]] for i in args} for terms, exps, args in sides)

    def invariants(self) -> PlaceInvariants:
        """dim, rr and rank from the rank profiles of the monomial places a
        tower is built from (`_ranks`): rr is the rational rank of the value
        group, rank its convex rank, and dim = n - rr.  No kernel, no HNF
        and, for a tower, no flat place or joint value group is built.

        dim = n - rr is Abhyankar's equality.  For a monomial place the
        residue field is generated by the kernel lattice of the weight
        rows, of rank n - rr.  For a tower P∘Q the residue field is Q's
        and the value group is the lexicographic extension of Q's by P's,
        so rr = rr_P + rr_Q; by induction dim_Q = arity_Q - rr_Q with
        arity_Q = dim_P = n - rr_P, so dim = n - rr again, for every tower
        built on monomial places."""
        n = self.arity
        rr, rank = self._ranks()
        dim = n - rr
        return PlaceInvariants(dim, rr, rank, abhyankar=(dim + rr == n), discrete=(rr == 1),
                               rational=(dim == 0), prime_divisor=(dim == n - 1),
                               maximal_rank=(rank == n))


class MonomialPlace(Place):
    """Weight-vector place: v(x^e) = sum_i e_i * weight_i, v(poly) = min over
    terms.  Built from its weight rows only; `weights` reads them out."""

    def __init__(self, field: BaseField, arity: int, ambient: AmbientGroup, rows, den: int = 1):
        """A place from its weights as integer rows (a_1, b_1, ...) over the
        positive denominator `den`: the weights' value group, one integer
        matrix over one denominator.  Sections and the kernel read the
        rows; per level, the (a, b) column pair is the form term_mins
        takes, and `_den` turns its minima into group values."""
        if type(arity) is not int:  # a bool is not one
            raise TypeError(f"arity must be an int, got {type(arity).__name__}")
        self.field = check_type(field, BaseField)
        group = Subgroup.from_rows(ambient, rows, den)
        if len(group.rows) != arity:
            raise ValueError("need one weight per variable")
        self.arity = arity
        self.ambient = ambient
        self._group = group
        self._den = group.den
        self._rows = rows = group.rows
        cols = list(zip(*rows)) or [()] * (2 * len(ambient.ds))  # (a, b) per level
        self._levels = tuple((cols[2 * lv], cols[2 * lv + 1], d)
                             for lv, d in enumerate(ambient.ds))

    @cached_property
    def weights(self):
        """The weights as group elements, built from the rows on first use
        (to print, combine or hand over the weights)."""
        return tuple(GroupElem.from_row(self.ambient, r, self._den) for r in self._rows)

    @property
    def flat_place(self) -> "MonomialPlace":
        return self

    @cached_property
    def _lattice_data(self):
        """The kernel basis of the weight rows, and their HNF basis with its
        transform rows (for sections).  Built together on first use, so once
        a place has been evaluated every later call on it does the same work."""
        h, u, pivots = lattice.hnf_transform(self._rows)
        basis = [tuple(h[r]) for r, _ in pivots]
        urows = [tuple(u[r]) for r, _ in pivots]
        kernel = tuple(tuple(row) for row in lattice.row_kernel(self._rows))
        return kernel, basis, urows

    @property
    def _kernel(self):
        return self._lattice_data[0]

    def monomial_value(self, evec) -> GroupElem:
        return combine(self.weights, evec, self.ambient)

    def monomial_sign(self, evec) -> int:
        """The sign of sum_i evec[i] * weight_i, one level column pair at a
        time (the columns term_mins reads): the first nonzero level decides."""
        for arow, brow, d in self._levels:
            s = quad_sign_int(sum(map(mul, evec, arow)), sum(map(mul, evec, brow)), d)
            if s:
                return s
        return 0

    def _scan(self, f: RatFunc):
        """One term_mins pass over each side of the nonzero f: per side its
        terms, their exponents and the indices of the minimal ones, and
        v(f) as an integer row over `_den`, the difference of the two
        minima (per level the integer (a, b) numerators)."""
        num, den, levels = f.num.terms, f.den.terms, self._levels
        num_exps, den_exps = list(num), list(den)
        num_args, hi = term_mins(num_exps, levels)
        den_args, lo = term_mins(den_exps, levels)
        row = [x for (ha, hb), (la, lb) in zip(hi, lo) for x in (ha - la, hb - lb)]
        return ((num, num_exps, num_args), (den, den_exps, den_args)), row

    def value_row(self, f: RatFunc):
        """v(f) for nonzero f as an integer row over `_den`."""
        _validate_match(self, f)
        if f.is_zero():
            raise ValueError("the zero function has no value row")
        return self._scan(f)[1]

    def value(self, f: RatFunc):
        """v(f): its integer row over `_den`, as a group element."""
        _validate_match(self, f)
        if f.is_zero():
            return INFINITY
        return GroupElem.from_row(self.ambient, self._scan(f)[1], self._den)

    def _raw_section(self, row, den: int):
        """The HNF-coordinate section of the value row / den, for an integer
        row over a positive den in any terms: additive in the value, so
        composite values built on it obey the valuation law exactly."""
        _, basis, urows = self._lattice_data
        scaled = [self._den * x for x in row]
        coeffs = (None if any(x % den for x in scaled)
                  else lattice.express_int(basis, [x // den for x in scaled]))
        if coeffs is None:
            v = GroupElem.from_row(self.ambient, row, den)
            raise NotInValueGroupError(f"{v} is not in the value group")
        return _add_combination((0,) * self.arity, coeffs, urows)

    def residue_desc(self) -> ResidueFieldDesc:
        return ResidueFieldDesc(self._kernel)

    def residue_dim(self) -> int:
        """arity - rr: the kernel lattice of the weight rows has rank
        arity minus their rank."""
        return self.arity - lattice.int_rank(self._rows)

    def residue(self, f: RatFunc):
        """Image of f in the residue field K(u_1..u_k), or 0 / infinity,
        with u_j the Laurent monomial of the j-th kernel-lattice HNF row."""
        _validate_match(self, f)
        return self._residue_in(f, self._kernel)

    def _residue_in(self, f: RatFunc, basis):
        """The residue of f with its monomials rewritten over `basis`:
        echelon rows with positive pivots that generate this place's kernel
        lattice, one residue-field generator per row.

        Positive value gives 0, negative value the infinity sentinel; the
        zero function has residue 0 by convention.  The sign of the value
        is read off the integer kernel minima; no group element is built.
        For value zero the minimal terms of numerator and denominator are
        shifted by the denominator's canonical minimizer and rewritten in
        basis coordinates; distinct exponents stay distinct, so the
        denominator image is never zero.
        """
        k = len(basis)
        if f.is_zero():
            return RatFunc.zero(self.field, k)
        scanned, row = self._scan(f)
        s = row_sign(row, self.ambient.ds)
        if s > 0:
            return RatFunc.zero(self.field, k)
        if s < 0:
            return INFINITY
        _, den_exps, den_args = scanned[1]
        den_canon = min(den_exps[i] for i in den_args)
        sides = []
        shift = [0] * k
        for coeffs, exps, args in scanned:
            terms = {}
            for e in map(exps.__getitem__, args):
                coords = lattice.express_int(basis, [x - y for x, y in zip(e, den_canon)])
                if coords is None:
                    raise AssertionError("surviving monomial outside the kernel lattice")
                terms[tuple(coords)] = coeffs[e]
                for j in range(k):
                    if coords[j] < shift[j]:
                        shift[j] = coords[j]
            sides.append(terms)
        num, den = (Poly.make(self.field, k, {tuple(x - y for x, y in zip(e, shift)): c
                                              for e, c in terms.items()}) for terms in sides)
        return RatFunc.make(num, den)

    def _ranks(self):
        """(rational rank, convex rank) of the weights, from one cached rank profile."""
        return rational_rank(self._group), convex_rank(self._group)

    def to_json(self):
        return {"kind": "monomial", "base": self.field.to_json(), "arity": self.arity,
                "ambient": self.ambient.to_json(), "weights": [w.to_json() for w in self.weights]}

    def __repr__(self):
        ws = ", ".join(str(w) for w in self.weights)
        return f"MonomialPlace({self.field}, weights=[{ws}])"


class CompositePlace(Place):
    """A place on top of the residue field of another.

    Values are pairs (inner value, outer value of the section-corrected
    residue), ordered lexicographically with the inner levels dominant.
    Values and residues both come from the flat place, built once from the
    effective weights; a residue is rewritten over the residue generators,
    the outer ones flattened through the inner ones.
    """

    def __init__(self, inner: Place, outer: Place):
        """`outer` must be a place on the inner residue field: its arity is
        checked against `inner.residue_dim()`, a rank, so building a tower
        computes no kernel basis at any level.  A tower nested deeper than
        MAX_TOWER_DEPTH is refused, as place_from_json refuses it."""
        if not isinstance(inner, Place) or not isinstance(outer, Place):
            raise TypeError(f"inner and outer must be places, got {type(inner).__name__} "
                            f"and {type(outer).__name__}")
        depth = 1 + max(inner.depth, outer.depth)
        if depth > MAX_TOWER_DEPTH:
            raise ValueError("composed place nests composite places deeper than "
                             f"MAX_TOWER_DEPTH = {MAX_TOWER_DEPTH}")
        if inner.field != outer.field:
            raise ValueError("inner and outer places over different base fields")
        k = inner.residue_dim()
        if outer.arity != k:
            raise ValueError(
                f"outer arity {outer.arity} does not match the inner residue "
                f"transcendence degree {k}"
            )
        self.inner = inner
        self.outer = outer
        self.depth = depth
        self.field = inner.field
        self.arity = inner.arity
        self.ambient = AmbientGroup(inner.ambient.ds + outer.ambient.ds)

    @cached_property
    def flat_place(self) -> MonomialPlace:
        """The monomial place of the variables' values, from integer rows
        over one positive denominator; they generate the term-value
        homomorphism.

        x_i has the inner value w_i; dividing it by the inner section of w_i
        leaves an inner unit, whose residue is a Laurent monomial u^c that
        the outer place values as v(u^c).
        """
        flat = self.inner.flat_place
        outer = []
        for i, w in enumerate(flat._rows):
            section = self.inner._raw_section(w, flat._den)
            unit = tuple(int(j == i) - c for j, c in enumerate(section))
            r = self.inner.residue(RatFunc.monomial(self.field, self.arity, unit))
            (top,), (bottom,) = r.num.terms, r.den.terms
            v = self.outer.monomial_value(tuple(x - y for x, y in zip(top, bottom)))
            outer.append((v.row, v.den))
        rows, den = align_rows([(w, flat._den) for w in flat._rows] + outer)
        return MonomialPlace(self.field, self.arity, self.ambient,
                             [w + u for w, u in zip(rows, rows[self.arity:])], den)

    def value(self, f: RatFunc):
        return self.flat_place.value(f)

    def residue(self, f: RatFunc):
        """The residue through the tower, read off the flat place in the
        tower's residue generators: the flat minimal terms are the inner
        minimal terms that are also minimal for the outer place, and the
        generators span the flat kernel lattice in echelon form."""
        _validate_match(self, f)
        gens = self.residue_desc().gens
        if not f.is_zero():
            # A nonzero inner value decides 0 or infinity, by the definition
            # of the composite valuation ring.  The flat minima decide that
            # too, so this exit is redundant; it stays while perfbench's
            # by-name self-check (EXPECTED_NONZERO in perfbench/run.py)
            # requires GroupElem.sign on `evaluate`, where this is its only
            # caller.
            s = self.inner.value(f).sign()
            if s > 0:
                return RatFunc.zero(self.field, len(gens))
            if s < 0:
                return INFINITY
        return self.flat_place._residue_in(f, gens)

    def _raw_section(self, row, den: int):
        """The inner section hits the inner part of the row; a kernel-lattice
        correction whose residue image is the outer section makes up the
        outer part."""
        width = 2 * self.inner.ambient.num_levels
        m0 = self.inner._raw_section(row[:width], den)
        coords = self.outer._raw_section(row[width:], den)
        return _add_combination(m0, coords, self.inner.residue_desc().gens)

    def residue_desc(self) -> ResidueFieldDesc:
        return self._residue_desc

    def residue_dim(self) -> int:
        """The residue field of P∘Q is that of the outer place Q."""
        return self.outer.residue_dim()

    @cached_property
    def _residue_desc(self) -> ResidueFieldDesc:
        """The outer residue generators flattened through the inner ones;
        derived once per place, since a tower never changes."""
        igens = self.inner.residue_desc().gens
        zero = (0,) * self.arity
        return ResidueFieldDesc(tuple(_add_combination(zero, m, igens)
                                      for m in self.outer.residue_desc().gens))

    def _ranks(self):
        """The value group extends the outer one by the inner one: in block form its
        pivot columns are the inner ones and the shifted outer ones, so both ranks add up."""
        (rr_in, rank_in), (rr_out, rank_out) = self.inner._ranks(), self.outer._ranks()
        return rr_in + rr_out, rank_in + rank_out

    def to_json(self):
        return {"kind": "composite", "inner": self.inner.to_json(), "outer": self.outer.to_json()}

    def __repr__(self):
        return f"CompositePlace({self.inner!r}, {self.outer!r})"


def compose(inner: Place, outer: Place) -> CompositePlace:
    """Stack `outer` (a place on the residue field of `inner`) on `inner`."""
    return CompositePlace(inner, outer)


def place_from_json(obj) -> Place:
    """The place a place object spells, checked in one walk as place.schema.json
    checks it and past it (no bool or float ints, squarefree radicands, matching
    counts, MAX_TOWER_DEPTH); a refusal is one ValueError line naming the path,
    a tuple of keys that the checks extend by `at` only when they refuse."""
    return _walk(obj, (), 0)


def _refusal(path, reason, schema=True) -> ValueError:
    """A refusal at `path`, in the words of a schema check or of a check past it."""
    where = "$" + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
    return ValueError(f"place does not match schema{' at ' + where if path else ''}: {reason}"
                      if schema else f"place at {where}: {reason}")


def _built(make, args, path, at=()):
    """make(*args), whose ValueError is refused at `path` + `at`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise _refusal(path + at, exc, False) from None


def _typed(value, kind, path, at=()):
    if type(value) is not kind:
        raise _refusal(path + at, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _fields(obj, keys, path, at=()):
    """The values of `keys` in `obj`, an object with exactly these keys (one key: its value)."""
    if type(obj) is dict and len(obj) == len(keys):
        try:
            return itemgetter(*keys)(obj)
        except KeyError:
            pass
    missing = [k for k in keys if k not in _typed(obj, dict, path, at)]
    extra = [k for k in obj if k not in keys]
    raise _refusal(path + at, f"{missing[0]!r} is a required property" if missing else
                   f"Additional properties are not allowed ({extra[0]!r:.40} was unexpected)")


def _walk(obj, path, depth) -> Place:
    kind = _typed(obj, dict, path).get("kind")
    if kind == "monomial":
        return _monomial(obj, path)
    if kind != "composite":
        if "kind" not in obj:
            raise _refusal(path, "'kind' is a required property")
        raise _refusal(path + ("kind",), f"{kind!r:.40} is not 'monomial' or 'composite'")
    if depth == MAX_TOWER_DEPTH:
        raise ValueError("place nests composite places deeper than "
                         f"MAX_TOWER_DEPTH = {MAX_TOWER_DEPTH}")
    _, inner, outer = _fields(obj, ("kind", "inner", "outer"), path)
    inner = _walk(inner, path + ("inner",), depth + 1)
    outer = _walk(outer, path + ("outer",), depth + 1)
    return _built(CompositePlace, (inner, outer), path)


def _monomial(obj, path) -> MonomialPlace:
    _, base, arity, ambient, weights = _fields(
        obj, ("kind", "base", "arity", "ambient", "weights"), path)
    if base != "Q" and (type(base) is not dict or base.keys() != {"p"}):
        raise _refusal(path + ("base",), f'expected "Q" or {{"p": p}}, got {base!r:.40}')
    field = _built(BaseField.from_json, (base,), path, ("base",))
    if type(arity) is not int or arity < 0:  # not a bool, nor jsonschema's 1.0
        raise _refusal(path + ("arity",), f"arity must be an int >= 0, got {arity!r:.40}", False)
    at = ("ambient", "levels")
    levels = _typed(_fields(ambient, ("levels",), path, ("ambient",)), list, path, at)
    ds = tuple(lv["d"] if type(lv) is dict and len(lv) == 1 and "d" in lv
               else _fields(lv, ("d",), path, at + (i,)) for i, lv in enumerate(levels))
    ambient = _built(AmbientGroup, (ds,), path, at)
    values = []
    for i, w in enumerate(_typed(weights, list, path, ("weights",))):
        row = []
        try:
            if type(w) is not list:
                raise TypeError
            for c in w:
                if type(c) is not dict or len(c) != 2:
                    raise TypeError
                row.append(rat_from_str(c["a"]))
                row.append(rat_from_str(c["b"]))
        except (KeyError, TypeError, ValueError) as exc:
            # the first misfit of the weight's form, else the literal after the last one read
            at = ("weights", i)
            for j, c in enumerate(_typed(w, list, path, at)):
                _fields(c, ("a", "b"), path, at + (j,))
            raise _refusal(path + at + (len(row) // 2, "ab"[len(row) % 2]), exc) from None
        values.append(row)
    rows, den = lattice.clear_denominators(values)
    return _built(MonomialPlace, (field, arity, ambient, rows, den), path, ("weights",))


class SpvReport(Record):
    _fields = ("passed", "axiom", "witness")

    def __init__(self, passed: bool, axiom: int = None, witness: tuple = None):
        f = self.__dict__
        f["passed"], f["axiom"], f["witness"] = passed, axiom, witness

    def to_json(self):
        if self.passed:
            return {"result": "pass"}
        return {"result": "fail", "axiom": self.axiom, "witness": [str(w) for w in self.witness]}


def check_spv_axioms(place: Place, sample, divides=None) -> SpvReport:
    """Verify the six universal valuation-divisibility axioms on a sample.

    Divisibility is x | y iff v(x) <= v(y), with v(0) maximal.  Pairs are
    checked for axiom 1, triples (exhaustively) for axioms 2-5, and 0 | 1
    must fail for axiom 6.  A custom `divides` relation can be injected for
    negative controls; it is taken to be a function of its arguments, so
    each pair of sample elements is asked once.  Each pairwise product and
    sum is built once, on first use.  The default relation compares value
    rows, computed once per element, product and sum, so v(x*z) and v(y+z)
    still come from the products and sums themselves.
    """
    check_type(place, Place)
    sample = [_validate_match(place, f) for f in sample]
    if len(sample) > MAX_AXIOM_SAMPLE:
        raise ValueError(f"check-axioms sample has {len(sample)} elements, more than "
                         f"MAX_AXIOM_SAMPLE = {MAX_AXIOM_SAMPLE}")
    if divides is None:
        ds = place.ambient.ds
        rows = {}

        def value_row(f):
            # Keyed by identity, since every element, product and sum is one
            # object; the entry holds f, so its id is never reused.
            entry = rows.get(id(f))
            if entry is None:
                entry = rows[id(f)] = (f, None if f.is_zero() else place.value_row(f))
            return entry[1]

        def divides(f, g):
            rf, rg = value_row(f), value_row(g)
            if rf is None:
                return rg is None
            if rg is None:
                return True
            return row_sign([b - a for a, b in zip(rf, rg)], ds) >= 0

    built = {}

    def pair(op, i, j):
        """op (add or mul) of two sample elements, built once per pair."""
        key = (op, i, j) if i <= j else (op, j, i)
        if key not in built:
            built[key] = op(sample[key[1]], sample[key[2]])
        return built[key]

    zero = RatFunc.zero(place.field, place.arity)
    one = RatFunc.const(place.field, place.arity, 1)
    if divides(zero, one):
        return SpvReport(False, 6, (zero, one))
    # The relation on sample pairs, decided once: rel[i][j] is x_i | x_j.
    rel = [[divides(x, y) for y in sample] for x in sample]
    for i, x in enumerate(sample):
        for j, y in enumerate(sample):
            if not rel[i][j] and not rel[j][i]:
                return SpvReport(False, 1, (x, y))
    zero_divides = [divides(zero, z) for z in sample]
    for i, x in enumerate(sample):
        rel_x = rel[i]
        for j, y in enumerate(sample):
            xy, rel_y = rel_x[j], rel[j]
            for k, z in enumerate(sample):
                if xy and rel_y[k] and not rel_x[k]:
                    return SpvReport(False, 2, (x, y, z))
                if xy and rel_x[k] and not divides(x, pair(add, j, k)):
                    return SpvReport(False, 3, (x, y, z))
                products_divide = divides(pair(mul, i, k), pair(mul, j, k))
                if xy and not products_divide:
                    return SpvReport(False, 4, (x, y, z))
                if products_divide and not zero_divides[k] and not xy:
                    return SpvReport(False, 5, (x, y, z))
    return SpvReport(True)
