import pytest

from tmfsim import parse_script_file
from tmfsim.daemon import RandomPolicy, ScriptPolicy, decide

MASK = False   # allow_failure_in_critical: the default, failures masked


def test_always_passive():
    """The empty schedule is the fault-free daemon."""
    policy = ScriptPolicy({})
    for step in (0, 1, 17, 10_000):
        for critical in (False, True):
            assert decide(policy, step, critical, MASK) == ("passive", False)


def test_script_schedule_semantics():
    policy = ScriptPolicy({3: "aggressive"})
    assert decide(policy, 3, False, MASK) == ("aggressive", False)
    assert decide(policy, 4, False, MASK) == ("passive", False)


def test_script_downgrade_in_critical_section():
    policy = ScriptPolicy({5: "aggressive"})
    assert decide(policy, 5, True, MASK) == ("passive", True)
    # the override lets the failure through
    assert decide(policy, 5, True, True) == ("aggressive", False)
    # faults are never masked
    fault = ScriptPolicy({5: "active"})
    assert decide(fault, 5, True, MASK) == ("active", False)


def test_script_rejects_bad_entries():
    with pytest.raises(ValueError):
        ScriptPolicy({-1: "active"})
    with pytest.raises(ValueError):
        ScriptPolicy({0: "passive"})


def test_random_probabilities_validated():
    with pytest.raises(ValueError):
        RandomPolicy(0.8, 0.3, seed=1)
    with pytest.raises(ValueError):
        RandomPolicy(-0.1, 0.0, seed=1)
    with pytest.raises(ValueError):
        RandomPolicy(float("nan"), 0.0, seed=1)
    with pytest.raises(ValueError):
        RandomPolicy(0.0, float("nan"), seed=1)
    with pytest.raises(ValueError):
        RandomPolicy(0.05, 0.01, -5)


def test_random_reproducibility():
    draws = []
    for _ in range(2):
        policy = RandomPolicy(0.3, 0.1, seed=1234)
        draws.append([decide(policy, k, False, MASK) for k in range(10_000)])
    assert draws[0] == draws[1]


def test_random_draw_consumed_even_when_masked():
    """Masking a draw must not shift the rest of the stream."""
    free = RandomPolicy(0.0, 0.5, seed=77)
    masked = RandomPolicy(0.0, 0.5, seed=77)
    raw = [decide(free, k, False, MASK)[0] for k in range(200)]
    shielded = [decide(masked, k, True, MASK) for k in range(200)]
    assert [c for c, _ in shielded] == ["passive"] * 200
    assert [down for _, down in shielded] == [c == "aggressive" for c in raw]


def test_random_frequency_sanity():
    policy = RandomPolicy(0.5, 0.0, seed=99)
    outcomes = [decide(policy, k, False, MASK)[0] for k in range(10_000)]
    fraction = outcomes.count("active") / len(outcomes)
    assert abs(fraction - 0.5) <= 0.05


def test_parse_script_file():
    policy = parse_script_file("# warmup\n3 active\n\n10 aggressive\n")
    assert policy.schedule == {3: "active", 10: "aggressive"}
    with pytest.raises(ValueError, match="duplicate step"):
        parse_script_file("1 active\n1 aggressive\n")
    with pytest.raises(ValueError, match="bad choice"):
        parse_script_file("1 sleepy\n")
    with pytest.raises(ValueError, match="bad step"):
        parse_script_file("one active\n")
    with pytest.raises(ValueError, match="line 1: negative step index -3"):
        parse_script_file("-3 active\n")


@pytest.mark.parametrize("line", ["1_0 active", "+3 aggressive", "\u0663 active"], ids=ascii)
def test_script_rejects_non_canonical_step_indices(line):
    """A step index is `0` or ASCII digits without sign, separator or
    leading zero, as in traces: `int()` would read these as 10 and 3."""
    with pytest.raises(ValueError, match="^line 1: bad step index: non-canonical integer"):
        parse_script_file(line + "\n")
