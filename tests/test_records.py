"""The record contract shared by all nine records: keyword construction,
field-by-field ==, repr, copy and pickle; the seven frozen records also hash
and refuse assignment, and the two result records stay plain."""

import copy
import pickle

import pytest

from caslens import (
    CombinedError,
    ErrorBudget,
    ForceMethod,
    ForceResult,
    FreeEnergyAreal,
    ImperfectionGeometry,
    LensKind,
    LensProfile,
    RatioCurve,
    Rule,
    SpecCheck,
    SpecReport,
)
from caslens.exceptions import _Record

#: (class, keyword arguments, the repr it prints), one row per record.
RECORDS = [
    (LensProfile, dict(kind=LensKind.PIT, R=0.15, D=0.15, R1=0.12, D1=1e-6),
     "LensProfile(kind=<LensKind.PIT: 'pit'>, R=0.15, D=0.15, R1=0.12, D1=1e-06)"),
    (ImperfectionGeometry, dict(r=1.5e-4, d=7.5e-8, offset=1.075e-6, spec_ok=True),
     "ImperfectionGeometry(r=0.00015, d=7.5e-08, offset=1.075e-06, spec_ok=True)"),
    (SpecCheck, dict(name="footprint-diameter", passed=True, detail="no imperfection present"),
     "SpecCheck(name='footprint-diameter', passed=True, detail='no imperfection present')"),
    (SpecReport, dict(checks=(SpecCheck("footprint-diameter", False, "x"),)),
     "SpecReport(checks=(SpecCheck(name='footprint-diameter', passed=False, detail='x'),))"),
    (ErrorBudget, dict(random_error=0.5, systematic_components=(1, 2.0, 0.25),
                       variance_of_mean=1.0),
     "ErrorBudget(random_error=0.5, systematic_components=(1.0, 2.0, 0.25), "
     "variance_of_mean=1.0, beta=0.95, k_table={3: 1.1}, q_table={})"),
    (CombinedError, dict(total=1.5, relative=None, rule_applied=Rule.BLEND, r=2.0,
                         random_error=1.0, systematic_error=1.0),
     "CombinedError(total=1.5, relative=None, rule_applied=<Rule.BLEND: 'blend'>, r=2.0, "
     "random_error=1.0, systematic_error=1.0)"),
    (RatioCurve, dict(separations=(1e-6, 2e-6), ratios=(0.5, 1.25)),
     "RatioCurve(separations=(1e-06, 2e-06), ratios=(0.5, 1.25))"),
]

#: The same for the two result records, which are plain: not frozen, unhashable.
RESULTS = [
    (ForceResult, dict(magnitude=4.2e-10, method=ForceMethod.BUBBLE,
                       a=1e-6, T=300.0, warning="w"),
     "ForceResult(magnitude=4.2e-10, method=<ForceMethod.BUBBLE: 'bubble'>, "
     "a=1e-06, T=300.0, warning='w')"),
    (FreeEnergyAreal, dict(value=-1.0, bracket=1.0, terms_used=3),
     "FreeEnergyAreal(value=-1.0, bracket=1.0, terms_used=3)"),
]


def _ids(rows):
    return [row[0].__name__ for row in rows]


@pytest.mark.parametrize("cls, kwargs, text", RECORDS + RESULTS, ids=_ids(RECORDS + RESULTS))
def test_record_contract(cls, kwargs, text):
    record = cls(**kwargs)
    assert repr(record) == text
    assert record == cls(**kwargs)
    assert record == cls(*kwargs.values())
    # Another class with the same fields never compares equal.
    other = type("Other", (cls,), {})(**kwargs)
    assert record != other and other != record
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin.__class__ is cls
        assert twin == record
        assert repr(twin) == text


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=_ids(RECORDS))
def test_frozen_records_refuse_assignment_and_deletion(cls, kwargs, text):
    record = cls(**kwargs)
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, field, kwargs[field])
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text


@pytest.mark.parametrize("cls, kwargs, text", RESULTS, ids=_ids(RESULTS))
def test_result_records_stay_assignable_and_unhashable(cls, kwargs, text):
    record = cls(**kwargs)
    with pytest.raises(TypeError):
        hash(record)
    field = next(iter(kwargs))
    setattr(record, field, kwargs[field])
    assert repr(record) == text
    # The sign flip breaks the record's invariant; a copy runs the constructor and refuses it.
    setattr(record, field, -kwargs[field])
    assert record != cls(**kwargs)
    with pytest.raises(ValueError):
        copy.copy(record)


class _Pair(_Record):
    __slots__ = ("first", "second")

    def __init__(self, *values):
        self._store(*values)


def test_store_takes_exactly_one_value_per_field():
    assert repr(_Pair(1, 2)) == "_Pair(first=1, second=2)"
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="zip"):
            _Pair(*values)


def test_equal_profiles_hash_equal_and_a_budget_is_unhashable():
    pit = LensProfile.pit(0.15, 0.12, 1e-6)
    assert hash(pit) == hash(LensProfile.pit(0.15, 0.12, 1e-6))
    assert len({pit, LensProfile.pit(0.15, 0.12, 1e-6), LensProfile.perfect(0.15)}) == 2
    with pytest.raises(TypeError):
        hash(ErrorBudget(random_error=0.5, systematic_components=(1.0,), variance_of_mean=1.0))


def test_budgets_built_without_tables_share_no_table():
    first = ErrorBudget(random_error=0.5, systematic_components=(1.0,), variance_of_mean=1.0)
    second = ErrorBudget(random_error=0.5, systematic_components=(1.0,), variance_of_mean=1.0)
    assert first.k_table == second.k_table == {3: 1.1}
    assert first.q_table == second.q_table == {}
    assert first.k_table is not second.k_table
    assert first.q_table is not second.q_table
