"""`tools/bench_pairs`: `summarize`, and the alternation and row directions
of --micro, on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _side(wall, rss, correct=True):
    return {"correct": correct, "metrics": {"w": {"wall_s": wall, "peak_rss_mb": rss}}}


def _runs(parent_walls, change_walls, rss=20.0):
    return [{"first": "parent" if i % 2 else "change",
             "parent": _side(a, rss), "change": _side(b, rss)}
            for i, (a, b) in enumerate(zip(parent_walls, change_walls))]


def test_medians_quartiles_ranges_and_wins():
    parent = [0.50, 0.52, 0.54, 0.56, 0.58]
    change = [0.40, 0.53, 0.41, 0.43, 0.42]  # loses pair 1 only
    row = bench_pairs.summarize(_runs(parent, change), {"wall_s": "lower"})["w"]
    assert row["correct"] is True
    wall = row["wall_s"]
    assert wall["pairs"] == 5
    assert wall["change_wins"] == 4
    assert wall["parent_median"] == 0.54 and wall["change_median"] == 0.42
    # inclusive quartiles of five points are the 2nd and 4th order statistics
    assert wall["parent_quartiles"] == [0.52, 0.56]
    assert wall["change_quartiles"] == [0.41, 0.43]
    assert wall["parent_range"] == [0.5, 0.58] and wall["change_range"] == [0.4, 0.53]


def test_ties_count_for_neither_side_and_direction_is_read():
    runs = _runs([1.0, 2.0, 3.0], [1.0, 1.0, 4.0])
    lower = bench_pairs.summarize(runs, {"wall_s": "lower"})["w"]["wall_s"]
    higher = bench_pairs.summarize(runs, {"wall_s": "higher"})["w"]["wall_s"]
    assert (lower["change_wins"], higher["change_wins"]) == (1, 1)
    rss = bench_pairs.summarize(runs, {"peak_rss_mb": "lower"})["w"]["peak_rss_mb"]
    assert rss["change_wins"] == 0


def test_a_failed_side_marks_the_workload_incorrect():
    runs = _runs([1.0, 2.0], [1.5, 1.5])
    runs[1]["parent"]["correct"] = False
    row = bench_pairs.summarize(runs, {"wall_s": "lower"})["w"]
    assert row["correct"] is False
    assert set(row) == {"wall_s", "correct"}


@pytest.mark.parametrize("pairs", [2, 10])
def test_summary_keys_match_the_bench_files(pairs):
    runs = _runs([0.5 + i / 100 for i in range(pairs)], [0.4] * pairs)
    wall = bench_pairs.summarize(runs, {"wall_s": "lower"})["w"]["wall_s"]
    assert set(wall) == {
        "parent_median", "change_median", "change_wins", "pairs", "parent_quartiles",
        "change_quartiles", "parent_range", "change_range",
    }
    assert wall["change_wins"] == pairs


def test_micro_runs_alternate_sides_and_summarize_each_row():
    """--micro: the change runs first in even pairs, and every micro row gets
    medians, quartiles and wins in `summarize`'s shape, judged in its
    BENCHMARK.json direction (lower for a row that is not listed)."""
    values = {"parent": iter([3000, 3100, 3200, 3300, 3400]),
              "change": iter([2600, 2700, 3300, 2500, 2650])}
    order = []

    def run_side(tree):
        order.append(tree)
        mul_ns = next(values[tree])
        rows = {"finite_field.mul_ns.r6": mul_ns, "elliptic_curve.point_add_us.r2": 4.6}
        return {"correct": True, "metrics": {"micro": rows}}

    runs = bench_pairs.paired_runs({"parent": "parent", "change": "change"}, 5, run_side)
    assert order == ["change", "parent", "parent", "change", "change", "parent",
                     "parent", "change", "change", "parent"]
    assert [run["first"] for run in runs] == ["change", "parent", "change", "parent", "change"]
    better = bench_pairs.micro_directions(
        runs, [{"name": "finite_field.mul_ns.r6", "better": "lower"},
               {"name": "finite_field.mul.calls", "better": "lower"}])
    assert better == {"finite_field.mul_ns.r6": "lower",
                      "elliptic_curve.point_add_us.r2": "lower"}
    row = bench_pairs.summarize(runs, better)["micro"]
    assert row["correct"] is True
    mul = row["finite_field.mul_ns.r6"]
    assert mul["change_wins"] == 4  # pair 2: 3300 against 3200
    assert mul["parent_median"] == 3200 and mul["change_median"] == 2650
    assert mul["parent_quartiles"] == [3100, 3300] and mul["change_quartiles"] == [2600, 2700]
    assert row["elliptic_curve.point_add_us.r2"]["change_wins"] == 0  # ties
