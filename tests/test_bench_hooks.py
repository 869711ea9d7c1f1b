"""The benchmark's traced runs wrap library functions by module and name.

``perfbench/traced_child.py`` replaces each ``(module, name)`` in its
``LAYERS`` table with a timing wrapper.  A rename or deletion in the package
would break traced runs only when they are run; this test fails first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACED_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "traced_child.py"


def _load_traced_child():
    spec = importlib.util.spec_from_file_location("perfbench_traced_child", TRACED_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    layers = _load_traced_child().LAYERS
    missing = [
        f"{module.__name__}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert not missing, f"traced layers no longer bound: {missing}"
