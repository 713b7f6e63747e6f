"""Tests for the compare mode of tools/parity.py."""

import importlib.util
from pathlib import Path

import numpy as np

SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(parity)


def write_tree(root, trace, model, scores):
    (root / "fit" / "draw0").mkdir(parents=True)
    (root / "fit" / "draw0" / "trace.txt").write_text("".join(f"{v!r}\n" for v in trace))
    (root / "fit" / "draw0" / "model.txt").write_text(model)
    (root / "same.txt").write_text("kept\n")
    np.save(root / "scores.npy", scores)


def test_compare_reports_differences_and_decides_nothing(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    scores = np.arange(50.0).reshape(2, 25)
    moved = scores.copy()
    moved[1, [24, 23]] = moved[1, [23, 24]]   # the top two candidates of row 1 swap
    write_tree(old, [-10.0, -9.0], "rtm-model v1\n2 0.5\n", scores)
    write_tree(new, [-10.0, -9.0, -8.5], "rtm-model v1\n2 0.5000001\n", moved)
    (new / "extra.txt").write_text("x\n")
    assert parity.main(["parity.py", "compare", str(old), str(new)]) is None
    lines = capsys.readouterr().out.splitlines()
    assert "same     same.txt" in lines
    assert "only in NEW  extra.txt" in lines
    assert "differs  fit/draw0/model.txt  max rel 2e-07" in lines
    assert "differs  fit/draw0/trace.txt  text differs from line 3, lines 2 -> 3" in lines
    assert "5 files: 1 byte-identical, 3 differ, 1 in one tree only" in lines
    assert ("files of one number per line whose line count moved: "
            "fit/draw0/trace.txt 2 -> 3") in lines
    assert ("top-20 retrieval orders of the scores.npy rows, up to swaps within 1e-06 "
            "relative: 1 agree, 1 differ") in lines
    assert "maps per words query, OLD: none" in lines


def test_swap_within_the_tolerance_keeps_the_order():
    scores = np.linspace(1.0, 2.0, 30)[None]
    moved = scores.copy()
    # the top two, 1e-7 apart relative in both trees, trade places
    moved[0, 29] = scores[0, 28] * (1 - 1e-7)
    scores[0, 29] = scores[0, 28] * (1 + 1e-7)
    assert parity.top_orders_agree(scores, moved).tolist() == [True]


def test_swap_beyond_the_tolerance_moves_the_order():
    scores = np.linspace(1.0, 2.0, 30)[None]
    moved = scores.copy()
    # candidate 10, outside the first 20, overtakes candidate 11, the 20th
    # (position 19), by 1e-5 relative
    moved[0, 10] = scores[0, 11] * (1 + 1e-5)
    assert parity.top_orders_agree(scores, moved).tolist() == [False]
    # a swap counts only where the scores stand farther apart in both trees
    assert parity.top_orders_agree(scores, moved, tol=1e-3).tolist() == [True]


def test_map_counts_are_summarised_per_tree(tmp_path):
    for i, counts in enumerate(([9, 10, 30], [12])):
        (tmp_path / f"draw{i}").mkdir()
        np.save(tmp_path / f"draw{i}" / "words-maps.npy", np.array(counts))
    assert parity.map_summary(tmp_path, "words") == \
        "mean 15.25, median 11, p95 27.3, max 30 (4 queries)"
    assert parity.map_summary(tmp_path, "links") == "none"


def test_relative_difference_counts_equal_entries_as_zero():
    assert parity.relative_difference([np.inf, np.nan, 0.0, 2.0], [np.inf, np.nan, 0.0, 2.0]) == 0
    assert parity.relative_difference([1.0, 4.0], [1.0, 5.0]) == 0.2
    assert parity.relative_difference([1.0], [np.nan]) == np.inf
