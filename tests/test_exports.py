"""Export guard: every ``__all__`` entry resolves, and the package re-exports only exported names."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import triholonomy

MODULES = sorted(m.name for m in pkgutil.iter_modules(triholonomy.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"triholonomy.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"triholonomy.{name}.__all__ lists undefined names"


def test_package_imports_only_exported_names():
    imports = [
        node
        for node in ast.parse(inspect.getsource(triholonomy)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"triholonomy.{node.module}").__all__
        unexported = [alias.name for alias in node.names if alias.name not in exported]
        assert unexported == [], f"triholonomy.{node.module} does not export these names"


def test_cli_binds_one_connection_name():
    # trace-sweep transports through holonomy.wilson_from_samples, not connection-layer parts
    cli = importlib.import_module("triholonomy.cli")
    bound = sorted(
        name for name, obj in vars(cli).items() if getattr(obj, "__module__", None) == "triholonomy.connection"
    )
    assert bound == ["eigenframe_rate_samples"]
    assert not hasattr(cli, "_wilson_line")
