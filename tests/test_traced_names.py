"""Every binding the benchmark tracer wraps exists on the package.

perfbench/tracing.py replaces (module, attribute) pairs listed in its
WRAPPED tuple; a rename in src/ that drops one of them would make the
traced benchmark run fail.  The tuple is read from the file's source,
so perfbench itself is not imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPPED":
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPPED in perfbench/tracing.py")


def test_every_wrapped_binding_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module, attribute, _span in wrapped:
        assert callable(getattr(importlib.import_module(module), attribute)), (module, attribute)
