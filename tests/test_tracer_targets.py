"""Every callable the benchmark's tracer wraps (perfbench/tracer.py,
TARGETS) still exists, so that a refactor which removes or renames one
fails here instead of in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_callable_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, path, _ in tracer.TARGETS:
        owner, attr = tracer._resolve(module_name, path)
        # install() reads methods from the class __dict__, functions by getattr
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        assert found and callable(getattr(owner, attr)), f"{module_name}.{path}"
