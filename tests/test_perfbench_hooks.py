"""The benchmark's per-layer counters hook popdiff functions by dotted name;
a rename would silently read 0, so every name must still resolve."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

# hooked names that no popdiff function carries any more; their counters read 0
STALE = {"fourier.raw_transform", "aps.perdiff_table_dense", "behrend.count_cyclic_3aps"}


def hook_names() -> list:
    """The keys of child.py's HOOKS dict, read from its source without running it."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets):
            return [ast.literal_eval(k) for k in node.value.keys]
    raise AssertionError("perfbench/child.py defines no HOOKS dict")


def resolves(name: str) -> bool:
    layer, *attrs = name.split(".")
    obj = importlib.import_module(f"popdiff.{layer}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return callable(obj)


def test_every_hooked_name_resolves_in_popdiff():
    names = hook_names()
    assert len(names) > len(STALE)
    assert {name for name in names if not resolves(name)} == STALE
