"""The verdicts `tools/bench_pairs.py` writes, on hand-made pairs: whether
each metric stays within its bound, and whether a claimed gain is met; and
how it names a checkout."""

import importlib.util
import pathlib
import re

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def entry(seed: int, parent: list[float], change: list[float], better: str = "higher") -> dict:
    """One series of the claimed workload, as `series` writes it."""
    compared = bench_pairs.compare({"parent": parent, "change": change}, "1/s", better, 0.2)
    return {"workload": "sweep", "seed": seed, "pairs": len(parent),
            "metrics": {"steps_per_s": compared}}


def test_within_bound_allows_the_bound_and_no_more():
    parent = [100.0, 101.0, 99.0, 100.0]
    assert bench_pairs.compare({"parent": parent, "change": [81.0] * 4},
                               "1/s", "higher", 0.2)["within_bound"]
    assert not bench_pairs.compare({"parent": parent, "change": [79.0] * 4},
                                   "1/s", "higher", 0.2)["within_bound"]
    assert bench_pairs.compare({"parent": [1.0] * 4, "change": [1.15] * 4},
                               "s", "lower", 0.2)["within_bound"]
    assert not bench_pairs.compare({"parent": [1.0] * 4, "change": [1.25] * 4},
                                   "s", "lower", 0.2)["within_bound"]
    # A gain is always within the bound; an unchanged metric is too.
    assert bench_pairs.compare({"parent": [1.0] * 4, "change": [0.5] * 4},
                               "s", "lower", 0.2)["within_bound"]
    assert bench_pairs.compare({"parent": [0.0] * 4, "change": [0.0] * 4},
                               "ratio", "lower", 0.15)["within_bound"]


def test_claim_needs_nine_tenths_of_the_pairs_on_every_seed():
    parent = [100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0, 100.0, 103.0, 97.0]
    nine_and_a_tie = [130.0] * 9 + [parent[9]]
    eight_and_two_ties = [130.0] * 8 + parent[8:]
    assert bench_pairs.claim_met([entry(11, parent, nine_and_a_tie)], "sweep",
                                 "steps_per_s") == {11: True}
    assert bench_pairs.claim_met([entry(11, parent, nine_and_a_tie),
                                  entry(23, parent, eight_and_two_ties)], "sweep",
                                 "steps_per_s") == {11: True, 23: False}


def test_claim_needs_a_median_gap_past_the_parents_iqr_the_right_way():
    parent = [100.0, 110.0, 90.0, 100.0, 120.0, 80.0, 100.0, 100.0, 105.0, 95.0]
    # Every pair won, but by less than the parent's own spread.
    assert bench_pairs.claim_met([entry(11, parent, [value + 1.0 for value in parent])],
                                 "sweep", "steps_per_s") == {11: False}
    # A gap past the spread in the worse direction claims nothing.
    assert bench_pairs.claim_met([entry(11, parent, [value * 2 for value in parent],
                                        better="lower")],
                                 "sweep", "steps_per_s") == {11: False}
    assert bench_pairs.claim_met([entry(11, parent, [value / 2 for value in parent],
                                        better="lower")],
                                 "sweep", "steps_per_s") == {11: True}


def test_a_plain_copy_is_named_by_its_source_files(tmp_path):
    """A checkout that is not a git work tree is named by a hash of its
    `src/` files: files outside `src/` and bytecode leave it as it is, and
    a changed byte or a renamed file changes it."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("outside src\n")
    name = bench_pairs.commit(str(tmp_path))
    assert re.fullmatch("tree:[0-9a-f]{12}", name)
    (tmp_path / "README.md").write_text("changed\n")
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\0")
    assert bench_pairs.commit(str(tmp_path)) == name
    (package / "a.py").write_text("x = 2\n")
    assert bench_pairs.commit(str(tmp_path)) != name
    (package / "a.py").write_text("x = 1\n")
    assert bench_pairs.commit(str(tmp_path)) == name
    (package / "a.py").rename(package / "b.py")
    assert bench_pairs.commit(str(tmp_path)) != name
