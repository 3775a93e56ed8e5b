import pytest

from perfectnt.transforms import verify_properties
from perfectnt.verify import _CLAIMS, GOLDEN_TARGETS, run_target, select_targets


def test_targets_are_unique_and_covered():
    names = [t.name for t in GOLDEN_TARGETS]
    assert len(names) == len(set(names)) == 8
    assert set(_CLAIMS) == set(names)


def test_select_all():
    assert select_targets() == list(GOLDEN_TARGETS)


def test_select_by_family():
    golay = select_targets(family="golay")
    assert [t.name for t in golay] == [
        "golay23-cyclic",
        "golay11-cyclic",
        "golay11-systematic",
        "extended-golay12",
    ]
    assert [t.name for t in select_targets(family="control")] == ["control63"]


def test_select_narrow():
    picked = select_targets(family="golay", p=3, form="cyclic")
    assert [t.name for t in picked] == ["golay11-cyclic"]
    picked = select_targets(family="hamming", p=2, m=3, form="cyclic")
    assert [t.name for t in picked] == ["hamming7-cyclic"]


def test_select_dynamic_hamming_target():
    picked = select_targets(family="hamming", p=2, m=4, form="cyclic")
    assert len(picked) == 1
    target = picked[0]
    assert target.name == "hamming-p2-m4-cyclic"
    summary, checks = run_target(target, trials=20, seed=3)
    assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]
    assert "det≠0" in summary


def test_select_no_match():
    assert select_targets(family="golay", p=5) == []
    assert select_targets(family="hamming", p=2, m=4, form="extended") == []


@pytest.mark.parametrize("target", GOLDEN_TARGETS, ids=lambda t: t.name)
def test_every_golden_target_passes(target):
    summary, checks = run_target(target, trials=40, seed=5)
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, failed
    assert "det≠0" in summary
    if target.name == "golay11-cyclic":
        assert "order=242" in summary


@pytest.mark.parametrize("trials", [0, -5])
def test_trials_below_one_refused(golden, trials):
    with pytest.raises(ValueError, match="trials"):
        run_target(GOLDEN_TARGETS[0], trials=trials)
    with pytest.raises(ValueError, match="trials"):
        verify_properties(golden["hamming7-cyclic"], trials=trials)
