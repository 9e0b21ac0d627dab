"""The benchmark's span hooks still name code of the package.

``perfbench/spans.py`` records per-layer metrics (``search_nodes``,
``turan.copies``, ``cache.hit_ratio``) at the functions its ``OBSERVE`` table
names, and ``layer_metrics`` times and counts calls (``antiramsey.cert_s``,
``core.containment_s``) by function name.  A name that no longer matches a
public function or ``Cache`` method is never wrapped, and its metric silently
reads 0.
"""

import ast
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


def assert_wrapped_function(spans, name):
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


def timed_names(spans):
    """Every "<module>.<name>" string constant in ``layer_metrics`` that is
    not a key of a dict literal (those keys name metrics, not functions)."""
    tree = ast.parse(SPANS.read_text())
    (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "layer_metrics"]
    keys = {id(k) for d in ast.walk(fn) if isinstance(d, ast.Dict) for k in d.keys}
    return {
        node.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in keys
        and node.value.split(".", 1)[0] in spans.MODULES
    }


def test_observed_names_are_wrapped_functions():
    spans = load_spans()
    assert spans.OBSERVE
    for name in spans.OBSERVE:
        assert_wrapped_function(spans, name)


def test_timed_names_are_wrapped_functions():
    spans = load_spans()
    names = timed_names(spans)
    assert {"antiramsey.find_rainbow_copy", "core.contains_member"} <= names
    for name in names:
        assert_wrapped_function(spans, name)
