"""The benchmark's span hooks still name code of the package.

``perfbench/spans.py`` records per-layer metrics (``search_nodes``,
``turan.copies``, ``cache.hit_ratio``) at the functions its ``OBSERVE`` table
names.  A name that no longer matches a public function or ``Cache`` method
is never wrapped, and its metric silently reads 0.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """Import ``spans.py`` by path, without instrumenting anything."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_observed_names_are_wrapped_functions():
    spans = load_spans()
    assert spans.OBSERVE
    for name in spans.OBSERVE:
        short, *path = name.split(".")
        assert short in spans.MODULES, name
        mod = importlib.import_module(f"rainbowlab.{short}")
        if path[0] == "Cache":  # a public method of Cache
            (attr,) = path[1:]
            fn = vars(mod.Cache).get(attr)
        else:  # a public function defined in that module
            (attr,) = path
            fn = vars(mod).get(attr)
            assert getattr(fn, "__module__", None) == mod.__name__, name
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
