"""The one numpy binding of the package, imported on first use.

Most chordlab commands are pure-integer loops that never touch numpy, so
``np`` is the real module when numpy is already imported and otherwise a
stdlib :class:`importlib.util.LazyLoader` module that executes numpy on
its first attribute access.
"""

from __future__ import annotations

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("chordlab requires numpy", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
