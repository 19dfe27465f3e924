import hashlib
import importlib.util
import json
import math
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "data_digests.py")
spec = importlib.util.spec_from_file_location("data_digests", TOOL)
data_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(data_digests)


def recorded(directory, files):
    """``directory`` laid out as ``data_digests.record`` leaves it: {run/file: text} and their digests."""
    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in files.items()}
    (directory / data_digests.DIGESTS).write_text(json.dumps(digests))
    return directory


FILES = {
    "run-a/trimer_sim.csv": "t,theta\n0,0.5\n1,nan\n",
    "run-a/gate.json": json.dumps({"fidelity": 0.25, "matrix": [[1.0, 0.0]], "passed": True}),
}


def test_equal_directories_exit_0(tmp_path, capsys):
    a, b = recorded(tmp_path / "a", FILES), recorded(tmp_path / "b", FILES)
    assert data_digests.diff(a, b) == 0
    assert capsys.readouterr().out == "0 of 2 data files differ; 0 on one side only\n"


def test_changed_csv_cell_is_listed_with_its_difference(tmp_path, capsys):
    changed = dict(FILES, **{"run-a/trimer_sim.csv": "t,theta\n0,0.75\n1,nan\n"})
    a, b = recorded(tmp_path / "a", FILES), recorded(tmp_path / "b", changed)
    assert data_digests.diff(a, b) == 1
    assert capsys.readouterr().out == (
        "run-a/trimer_sim.csv\tmax abs diff 0.25\n1 of 2 data files differ; 0 on one side only\n")


def test_file_on_one_side_only_exits_1(tmp_path, capsys):
    a = recorded(tmp_path / "a", FILES)
    b = recorded(tmp_path / "b", {"run-a/gate.json": FILES["run-a/gate.json"]})
    assert data_digests.diff(a, b) == 1
    assert capsys.readouterr().out == (
        f"run-a/trimer_sim.csv\tonly in {a}\n0 of 1 data files differ; 1 on one side only\n")


@pytest.mark.parametrize("left, right, expected", [
    ("x\nnan\n1.5\n", "x\nnan\n1.5\n", 0.0),  # NaN against NaN counts 0
    ("x\nnan\n1.5\n", "x\nnan\n2\n", 0.5),
    ("x\ninf\n", "x\ninf\n", 0.0),
    ("x\nnan\n", "x\n1\n", math.inf),  # NaN against a number
    ("x\n1\n2\n", "x\n1\n", math.inf),  # the counts differ
])
def test_largest_difference_of_csv_cells(tmp_path, left, right, expected):
    (tmp_path / "a.csv").write_text(left)
    (tmp_path / "b.csv").write_text(right)
    assert data_digests.largest_difference(tmp_path / "a.csv", tmp_path / "b.csv") == expected


def test_largest_difference_of_json_numbers(tmp_path):
    # keys are sorted and booleans are not numbers, so only the numbers' values decide
    (tmp_path / "a.json").write_text(json.dumps({"b": [1.0, 2.0], "a": 3, "flag": True}))
    (tmp_path / "b.json").write_text(json.dumps({"a": 3.5, "b": [1.0, 2.0], "flag": False}))
    (tmp_path / "c.json").write_text(json.dumps({"a": 3, "b": [1.0]}))
    assert data_digests.largest_difference(tmp_path / "a.json", tmp_path / "b.json") == 0.5
    assert data_digests.largest_difference(tmp_path / "a.json", tmp_path / "c.json") == math.inf
