"""The value records: each of the 13 keeps the semantics its callers,
the golden reports and perfbench read.  Equal fields give `==` and, for a
frozen record, an equal field-tuple hash; another class is unequal; a
frozen record refuses assignment and a mutable one is unhashable; every
record prints as `Name(field=value, ...)`."""

import re
from fractions import Fraction

import pytest

from placeforge import (
    AmbientGroup,
    BaseField,
    GoodifyResult,
    GroupElem,
    PlaceInvariants,
    QuadScalar,
    ResidueFieldDesc,
    SignSignature,
    Subgroup,
    TargetShape,
)
from placeforge.approx import PerturbResult
from placeforge.ordgroup import EmbeddingVerdict
from placeforge.places import SpvReport

AMB = AmbientGroup((2,))

# (build a fresh record, its repr, frozen)
RECORDS = [
    (lambda: QuadScalar(Fraction(1, 2), Fraction(-1), 2),
     "QuadScalar(a=Fraction(1, 2), b=Fraction(-1, 1), d=2)", True),
    (lambda: AmbientGroup((2, 3)), "AmbientGroup(ds=(2, 3))", True),
    (lambda: GroupElem.from_row(AMB, (2, 4), 4),
     "GroupElem(ambient=AmbientGroup(ds=(2,)), row=(1, 2), den=2)", True),
    (lambda: Subgroup.from_rows(AMB, [(2, 0), (0, 4)], 2),
     "Subgroup(ambient=AmbientGroup(ds=(2,)), rows=((1, 0), (0, 2)), den=1)", True),
    (lambda: EmbeddingVerdict("order_violated", (1, -1)),
     "EmbeddingVerdict(status='order_violated', witness=(1, -1))", True),
    (lambda: BaseField(5), "BaseField(p=5)", True),
    (lambda: ResidueFieldDesc(((1, -1),)), "ResidueFieldDesc(gens=((1, -1),))", True),
    (lambda: PlaceInvariants(1, 1, 1, True, True, False, True, False),
     "PlaceInvariants(dim=1, rr=1, rank=1, abhyankar=True, discrete=True, rational=False, "
     "prime_divisor=True, maximal_rank=False)", True),
    (lambda: SpvReport(False, 2, ("x1",)),
     "SpvReport(passed=False, axiom=2, witness=('x1',))", True),
    (lambda: TargetShape("preserve_values", "composite_drop", 2, 0),
     "TargetShape(mode='preserve_values', klass='composite_drop', r1=2, d1=0)", True),
    (lambda: SignSignature(frozenset({((1, 0), 1)})),
     "SignSignature(entries=frozenset({((1, 0), 1)}), sources=(), notices=(), signs=())", True),
    (lambda: PerturbResult(None, 3), "PerturbResult(place=None, iterations=3)", False),
    (lambda: GoodifyResult(None, checks=[]),
     "GoodifyResult(place=None, iota=None, iterations=0, checks=[], notices=())", False),
]


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=lambda i: RECORDS[i][1].split("(")[0])
def test_record_semantics(index):
    build, text, frozen = RECORDS[index]
    record, twin = build(), build()
    other = RECORDS[(index + 1) % len(RECORDS)][0]()
    assert record is not twin and record == twin and not record != twin
    assert repr(record) == text
    assert record != other and record.__eq__(other) is NotImplemented
    assert record.__eq__(tuple(vars(record).values())) is NotImplemented
    field = re.match(r"\w+\((\w+)=", text)[1]
    if frozen:
        # a fresh record's __dict__ holds just its fields, in order
        assert hash(record) == hash(twin) == hash(tuple(vars(record).values()))
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert record == twin
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, field, "changed")
        assert record != twin


def test_subgroup_cache_takes_no_part_in_equality():
    """Subgroup keeps its rank profile, found on first use, beside its
    fields; a subgroup that has read it equals and hashes as one that has
    not."""
    read, unread = (Subgroup.from_rows(AMB, [(1, 0), (2, 0)]) for _ in range(2))
    assert read.rank_profile == [0]
    assert "rank_profile" in vars(read) and "rank_profile" not in vars(unread)
    assert read == unread and hash(read) == hash(unread)


def test_quadscalar_constructor_calls_its_post_init_once(monkeypatch):
    """perfbench's tracer counts QuadScalar constructions by wrapping the
    `__post_init__` in the class dict: the constructor must call it once
    per scalar, through the class, and keep its radicand check."""
    calls = []
    post_init = vars(QuadScalar)["__post_init__"]

    def counted(scalar):
        calls.append(scalar)
        post_init(scalar)

    monkeypatch.setattr(QuadScalar, "__post_init__", counted)
    scalar = QuadScalar(Fraction(1), Fraction(2), 3)
    assert calls == [scalar]
    GroupElem.from_row(AmbientGroup((2, 3)), (1, 0, 0, 1), 2).coords
    assert len(calls) == 3
    with pytest.raises(ValueError, match="squarefree"):
        QuadScalar(Fraction(1), Fraction(1), 4)
    assert len(calls) == 4
