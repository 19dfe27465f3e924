import importlib.util
import os
import sys

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "raise_sites.py")
spec = importlib.util.spec_from_file_location("raise_sites", TOOL)
raise_sites = importlib.util.module_from_spec(spec)
spec.loader.exec_module(raise_sites)

SOURCE = '''"""A module docstring runs no code."""
import math


class Box:
    """Nor does a class docstring."""

    def root(self, v):
        if v < 0:
            raise ValueError(f"negative {v}")
        return math.sqrt(v)


def refuse():
    raise RuntimeError("never")
'''


def test_sites_are_named_by_module_function_and_message():
    found = raise_sites.sites(SOURCE, "box")
    assert [(s.function, s.message, s.line) for s in found if s.is_raise] == [
        ("Box.root", "f'negative {v}'", 10), ("refuse", "'never'", 15)]
    assert [s.line for s in found] == [2, 5, 8, 9, 10, 11, 14, 15]  # no docstring


def test_unreached_lists_each_statement_no_call_executed(tmp_path):
    path = tmp_path / "box.py"
    path.write_text(SOURCE)
    code, namespace = compile(SOURCE, str(path), "exec"), {}

    def run():
        exec(code, namespace)
        return namespace["Box"]().root(4.0)

    before = sys.gettrace()
    result, executed = raise_sites.traced(tmp_path, run)
    assert result == 2.0 and sys.gettrace() is before
    missed = raise_sites.unreached(tmp_path, executed)
    assert [(s.module, s.function, s.message, s.is_raise) for s in missed] == [
        ("box", "Box.root", "f'negative {v}'", True), ("box", "refuse", "'never'", True)]
