"""The benchmark tracer wraps chordlab functions and reads memo tables by
name; every name it lists must still resolve, or a traced benchmark run
breaks.  The tracer's tables are read from its source, so nothing under
perfbench/ is imported or written."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_table(name: str):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_every_traced_layer_resolves():
    layers = _tracer_table("LAYERS")
    assert layers
    for module, name, _ in layers:
        obj = getattr(importlib.import_module(f"chordlab.{module}"), name, None)
        assert callable(obj), f"chordlab.{module}.{name}"


def test_every_memo_table_resolves():
    memos = _tracer_table("MEMOS")
    assert memos
    layer_keys = {f"{m}.{n}" for m, n, _ in _tracer_table("LAYERS")}
    for key, (module, attr) in memos.items():
        assert key in layer_keys
        table = getattr(importlib.import_module(f"chordlab.{module}"), attr, None)
        assert isinstance(table, dict), f"chordlab.{module}.{attr}"
