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
    result, executed, _ = raise_sites.traced(tmp_path, run)
    assert result == 2.0 and sys.gettrace() is before
    missed = raise_sites.unreached(tmp_path, executed)
    assert [(s.module, s.function, s.message, s.is_raise) for s in missed] == [
        ("box", "Box.root", "f'negative {v}'", True), ("box", "refuse", "'never'", True)]


ERRORS = '''def check(name, value, bound):
    if not bound(value):
        raise ValueError(name)
    return value
'''

CALLER = '''def area(w, h):
    check("width", w, lambda v: v > 0)
    return w * check(
        "height", h, lambda v: v > 0)
'''


def test_a_check_call_that_never_refuses_is_listed(tmp_path):
    # both calls run, but only the height's refuses, from a call over two lines: the width's refusal is never reached
    (tmp_path / "errors.py").write_text(ERRORS)
    (tmp_path / "box.py").write_text(CALLER)
    assert [(s.function, s.message, s.line, s.last) for s in raise_sites.check_calls(CALLER, "box")] == [
        ("area", "'width'", 2, 2), ("area", "'height'", 3, 4)]
    namespace = {}

    def run():
        exec(compile(ERRORS, str(tmp_path / "errors.py"), "exec"), namespace)
        exec(compile(CALLER, str(tmp_path / "box.py"), "exec"), namespace)
        try:
            namespace["area"](3.0, -2.0)
        except ValueError:
            pass
        return namespace["area"](3.0, 2.0)

    watched = raise_sites.refusals(tmp_path)
    assert watched == {(os.path.realpath(tmp_path / "errors.py"), 3)}
    result, executed, callers = raise_sites.traced(tmp_path, run, watched)
    assert result == 6.0 and len(callers) == 1
    assert callers <= {(os.path.realpath(tmp_path / "box.py"), line) for line in (3, 4)}
    assert [(s.module, s.function, s.message) for s in raise_sites.unrefused(tmp_path, callers)] == [
        ("box", "area", "'width'")]
    assert not raise_sites.unreached(tmp_path, executed)  # every statement ran
