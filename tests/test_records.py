"""The record contract shared by the seven frozen records: keyword
construction, field-by-field ==, repr and hash, frozenness, copy and pickle."""

import copy
import pickle

import pytest

from caslens import (
    CombinedError,
    ErrorBudget,
    ImperfectionGeometry,
    LensKind,
    LensProfile,
    RatioCurve,
    Rule,
    SpecCheck,
    SpecReport,
)

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


@pytest.mark.parametrize("cls, kwargs, text", RECORDS, ids=[row[0].__name__ for row in RECORDS])
def test_record_contract(cls, kwargs, text):
    record = cls(**kwargs)
    assert repr(record) == text
    assert record == cls(**kwargs)
    assert record == cls(*kwargs.values())
    # Another class with the same fields never compares equal.
    other = type("Other", (cls,), {})(**kwargs)
    assert record != other and other != record
    field = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(record, field, kwargs[field])
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == text
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin.__class__ is cls
        assert twin == record
        assert repr(twin) == text


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
