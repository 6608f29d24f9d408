"""Value semantics of the package's record classes.

Every record compares equal exactly when its fields do, shows itself as
``Name(field=value, ...)`` in field order, and, unless it is `SolveStats`,
cannot be changed after construction.
"""

import pytest

from distcsp.analysis import AnalysisReport
from distcsp.endomorphism import EndoCheck, EndoClassification, PeriodicMapSpec
from distcsp.errors import InputError
from distcsp.model import (
    Constraint,
    FrozenRecord,
    Instance,
    Record,
    RelationDef,
    Template,
    _trusted,
)
from distcsp.polymorphism import PreservationResult
from distcsp.solver import Preprocessed, SolveStats, Verdict

REL = "RelationDef(name='d', arity=2, body=((-1,), (1,)))"
TEMPLATE = f"Template(name='t', relations=({REL},))"
INSTANCE = "Instance(num_vars=2, constraints=(Constraint(relation='d', args=(0, 1)),))"


def _relation():
    return RelationDef("d", 2, [(1,), (-1,), (1,)])


def _template():
    return Template("t", [_relation()])


def _instance():
    return Instance(2, [Constraint("d", [0, 1])])


# (factory of one record, factory of a record that differs in one field, repr)
CASES = {
    "RelationDef": (_relation, lambda: RelationDef("d", 2, ((1,),)), REL),
    "Template": (_template, lambda: Template("u", [_relation()]), TEMPLATE),
    "Constraint": (
        lambda: Constraint("d", [0, 1]),
        lambda: Constraint("d", (1, 0)),
        "Constraint(relation='d', args=(0, 1))",
    ),
    "Instance": (_instance, lambda: Instance(3, [Constraint("d", [0, 1])]), INSTANCE),
    "SolveStats": (
        lambda: SolveStats(1, 2, 3, core_searches=5, components=4),
        lambda: SolveStats(1, 2, 3, 4),
        "SolveStats(proper_replacements=1, sweeps=2, full_to_finite=3, components=4,"
        " core_searches=5)",
    ),
    "Verdict": (
        lambda: Verdict("sat", witness=(0, 1)),
        lambda: Verdict("sat", witness=(0, 1), stats=SolveStats()),
        "Verdict(status='sat', witness=(0, 1), reason=None, stats=None)",
    ),
    "Preprocessed": (
        lambda: Preprocessed(_instance(), _template(), False),
        lambda: Preprocessed(_instance(), _template(), True),
        f"Preprocessed(instance={INSTANCE}, template={TEMPLATE}, unsat=False)",
    ),
    "AnalysisReport": (
        lambda: AnalysisReport((1, 3), 3, True, {1: 1, 2: 2}, 6),
        lambda: AnalysisReport((1, 3), 3, True, {1: 1, 2: 2}, 7),
        "AnalysisReport(distances=(1, 3), max_distance=3, connected=True,"
        " path_lengths={1: 1, 2: 2}, stretch_bound=6)",
    ),
    "PeriodicMapSpec": (
        lambda: PeriodicMapSpec(3, [0, 1, 0], 1),
        lambda: PeriodicMapSpec(3, (0, 1, 0), -1),
        "PeriodicMapSpec(period=3, base_values=(0, 1, 0), drift=1)",
    ),
    "EndoCheck": (
        lambda: EndoCheck(False, "d", (0, 1), image=(0, 2)),
        lambda: EndoCheck(False),
        "EndoCheck(ok=False, relation='d', source=(0, 1), image=(0, 2))",
    ),
    "EndoClassification": (
        lambda: EndoClassification("periodic", 1, 1, (1, 2, 3), 3),
        lambda: EndoClassification("periodic", -1, 1, (1, 2, 3), 3),
        "EndoClassification(kind='periodic', direction=1, minimal_stable=1,"
        " stable_numbers_upto=(1, 2, 3), checked_upto=3)",
    ),
    "PreservationResult": (
        lambda: PreservationResult(False, ((0, 1), (1, 2), (2, 3)), (0, 1)),
        lambda: PreservationResult(False, ((0, 1), (1, 2), (2, 3)), (0, 1), trivial=True),
        "PreservationResult(preserved=False, witness=((0, 1), (1, 2), (2, 3)), image=(0, 1),"
        " trivial=False)",
    ),
}

# records whose fields include a dict cannot be hashed
UNHASHABLE = {"SolveStats", "AnalysisReport"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    make, other, text = CASES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a != other() and other() != a
    assert a != text and a.__eq__(text) is NotImplemented
    assert repr(a) == text
    field = text[len(name) + 1 :].split("=", 1)[0]
    if name == "SolveStats":
        a.sweeps += 1
        assert a != b and a.sweeps == 3
        with pytest.raises(TypeError):
            hash(a)
        return
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    value = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is value and a == b


def test_trusted_equals_validated():
    trusted = _trusted(Constraint, relation="d", args=(0, 1))
    assert trusted == Constraint("d", [0, 1])
    assert hash(trusted) == hash(Constraint("d", (0, 1)))
    assert repr(trusted) == "Constraint(relation='d', args=(0, 1))"
    instance = _trusted(Instance, num_vars=2, constraints=(trusted,))
    assert instance == _instance()


def test_fields_follow_annotation_order():
    for make, _, _ in CASES.values():
        cls = type(make())
        assert cls._fields == tuple(cls.__annotations__)
    assert Verdict._fields == ("status", "witness", "reason", "stats")


def test_position_keyword_and_default_construction_agree():
    assert Verdict("sat") == Verdict("sat", None, None, None) == Verdict(status="sat", reason=None)
    assert Verdict("sat").as_dict() == dict(status="sat", witness=None, reason=None, stats=None)
    assert SolveStats().as_dict() == dict.fromkeys(SolveStats._fields, 0)
    assert SolveStats(1, 2, 3, 4, 5) == SolveStats(
        core_searches=5, components=4, full_to_finite=3, sweeps=2, proper_replacements=1
    )
    assert EndoCheck(True) == EndoCheck(ok=True, relation=None, source=None, image=None)
    assert PreservationResult(False, image=(0,)).trivial is False


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Verdict(), r"Verdict\.__init__\(\) missing 1 required positional argument"),
        (lambda: EndoCheck(True, colour=1), r"EndoCheck\.__init__\(\) got an unexpected keyword"),
        (lambda: SolveStats(1, 2, 3, 4, 5, 6), r"SolveStats\.__init__\(\) takes from 1 to 6"),
        (lambda: Preprocessed(_instance(), _template()), r"Preprocessed\.__init__\(\) missing"),
    ],
)
def test_wrong_arguments_name_the_class(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_a_class_keeps_its_own_methods():
    # RelationDef and PeriodicMapSpec validate in their own __init__;
    # AnalysisReport sets __hash__ = None
    assert RelationDef("d", 2, [(3,), (1,), (3,)]).body == ((1,), (3,))
    with pytest.raises(InputError):
        PeriodicMapSpec(0, (), 0)
    with pytest.raises(TypeError):
        hash(CASES["AnalysisReport"][0]())


def test_a_record_class_needs_only_its_annotations():
    class Point(FrozenRecord):
        x: int
        y: int = 0

    class Tally(Record):
        hits: int = 0

    p = Point(1)
    assert p == Point(1, 0) == Point(y=0, x=1) and p != Point(1, 1)
    assert hash(p) == hash(Point(x=1)) == hash((1, 0))
    assert repr(p).endswith(".<locals>.Point(x=1, y=0)") and p.as_dict() == {"x": 1, "y": 0}
    with pytest.raises(AttributeError):
        p.x = 2
    tally = Tally()
    tally.hits += 1
    assert tally == Tally(1) and repr(tally).endswith(".<locals>.Tally(hits=1)")
    with pytest.raises(TypeError):
        hash(tally)
