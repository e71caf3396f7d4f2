"""The benchmark tracer names library entry points as strings; a rename in
the library must fail here rather than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from modsym.polycore import Polynomial

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    spans = _load_spans()
    for module_name, names in spans._FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_traced_polynomial_methods_exist():
    spans = _load_spans()
    for name in spans._POLY_METHODS:
        assert hasattr(Polynomial, name), name
