"""Fault plans: spec validation, trigger exclusivity, composition."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import NO_FAULTS, FaultKind, FaultPlan, FaultSpec
from repro.faults.plan import _WRITE_KINDS

pytestmark = pytest.mark.faults


def test_probability_trigger_is_valid():
    spec = FaultSpec(FaultKind.READ_BIT_FLIP, probability=0.5)
    assert spec.is_read_fault and spec.kind not in _WRITE_KINDS


def test_at_nth_trigger_is_valid():
    spec = FaultSpec(FaultKind.TORN_WRITE, at_nth=3)
    assert spec.kind in _WRITE_KINDS and not spec.is_read_fault


def test_exactly_one_trigger_required():
    with pytest.raises(FaultPlanError):
        FaultSpec(FaultKind.READ_BIT_FLIP)  # neither
    with pytest.raises(FaultPlanError):
        FaultSpec(FaultKind.READ_BIT_FLIP, probability=0.5, at_nth=1)  # both


def test_probability_bounds():
    with pytest.raises(FaultPlanError):
        FaultSpec(FaultKind.READ_BIT_FLIP, probability=1.5)
    with pytest.raises(FaultPlanError):
        FaultSpec(FaultKind.READ_BIT_FLIP, probability=-0.1)


def test_at_nth_is_one_based():
    with pytest.raises(FaultPlanError):
        FaultSpec(FaultKind.STUCK_WRITE, at_nth=0)


def test_max_times_validation():
    with pytest.raises(FaultPlanError):
        FaultSpec(FaultKind.STUCK_WRITE, at_nth=1, max_times=0)
    spec = FaultSpec(FaultKind.STUCK_WRITE, probability=0.1, max_times=2)
    assert spec.max_times == 2


def test_kind_must_be_fault_kind():
    with pytest.raises(FaultPlanError):
        FaultSpec("torn_write", at_nth=1)


def test_every_kind_is_read_xor_write():
    for kind in FaultKind:
        spec = FaultSpec(kind, at_nth=1)
        assert spec.is_read_fault != (spec.kind in _WRITE_KINDS)


def test_page_filter_scopes_matches():
    spec = FaultSpec(
        FaultKind.WRITE_BIT_FLIP, at_nth=1, page_filter=lambda pid: pid % 2 == 0
    )
    assert spec.matches_page(4)
    assert not spec.matches_page(5)
    unfiltered = FaultSpec(FaultKind.WRITE_BIT_FLIP, at_nth=1)
    assert unfiltered.matches_page(5)


def test_plan_of_and_partition():
    read = FaultSpec(FaultKind.TRANSIENT_READ_ERROR, probability=0.1)
    write = FaultSpec(FaultKind.TORN_WRITE, at_nth=2)
    plan = FaultPlan.of(read, write)
    assert [s for s in plan.specs if s.is_read_fault] == [read]
    assert [s for s in plan.specs if s.kind in _WRITE_KINDS] == [write]


def test_plan_addition_concatenates_in_order():
    a = FaultPlan.of(FaultSpec(FaultKind.READ_BIT_FLIP, probability=0.1))
    b = FaultPlan.of(FaultSpec(FaultKind.STUCK_WRITE, at_nth=1))
    combined = a + b
    assert combined.specs == a.specs + b.specs


def test_plan_rejects_non_specs():
    with pytest.raises(FaultPlanError):
        FaultPlan(("not a spec",))


def test_no_faults_is_empty():
    assert NO_FAULTS.specs == ()
    assert not any(s.is_read_fault for s in NO_FAULTS.specs)
    assert not any(s.kind in _WRITE_KINDS for s in NO_FAULTS.specs)
