"""Every exported name resolves, and every name a submodule exports is used
somewhere in the library."""

import argparse
import ast
import importlib
import inspect
import pathlib

import pytest

import adspet
from adspet.cli import build_parser
from adspet.qmatrix import psd_check, rigidity_check, theorem_bounds

MODULES = ("adspet", "adspet.charges", "adspet.clifford", "adspet.geometry",
           "adspet.initial_data", "adspet.killing", "adspet.qmatrix",
           "adspet.spinors")

# Exported names that no module calls, each kept for a caller outside the
# library.
UNCALLED_EXPORTS = {
    # The inverse of the AADS-ID v1 reader: it turns an analytic model into a
    # grid file, which is how a grid model is checked against a closed form.
    "write_grid_file",
    # The closed forms of the third-minor sum and of det Q, which acceptance
    # criterion 7 compares with the eigensolver on sampled charge sets.
    "third_minor_sum",
    "det_closed_form",
}


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _uses(tree, skip=None):
    """Names read in a module (as a name or an attribute), outside the
    top-level definition `skip`.  Imports and __all__ strings are not uses."""
    nodes = [n for n in tree.body
             if getattr(n, "name", None) != skip or not isinstance(
                 n, (ast.FunctionDef, ast.ClassDef))]
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
    return used


def test_every_exported_name_is_used():
    src = pathlib.Path(adspet.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    uses = {module: _uses(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name in _exports(tree):
            if name in UNCALLED_EXPORTS:
                continue
            elsewhere = any(name in used for other, used in uses.items()
                            if other != module)
            if not (elsewhere or name in _uses(tree, skip=name)):
                unused.append(f"{module}.{name}")
    assert unused == []
    # An exemption ends with its reason: a name the library calls is no
    # longer uncalled.
    called = sorted(name for name in UNCALLED_EXPORTS
                    if any(name in _uses(tree, skip=name) for tree in trees.values()))
    assert called == []


def _tracer_tables():
    """perfbench/tracer.py's TIMED and COUNTED tables, read from its source
    without importing it: layer name -> (module, attribute)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tables = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if getattr(target, "id", None) in ("TIMED", "COUNTED"):
                    tables.update(ast.literal_eval(node.value))
    return tables


def test_traced_layers_resolve():
    # The benchmark's tracer patches these functions by name; one renamed or
    # deleted in the library would drop its layer from traced runs.
    tables = _tracer_tables()
    assert "cli.main" in tables and "clifford.gamma" in tables
    missing = [f"{module}.{attr}" for module, attr in tables.values()
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_the_bounds_have_one_formula_and_fixed_tolerances():
    # The proof's bounds are the only ones, judged at fixed tolerances: no
    # command takes --variant, and no bounds-layer call takes a variant or a
    # tolerance.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    with_variant = [name for name, parser in sub.choices.items()
                    if "--variant" in parser._option_string_actions]
    assert with_variant == []
    knobs = {"variant", "tol", "rel_tol"}
    assert {fn.__name__: sorted(knobs & set(inspect.signature(fn).parameters))
            for fn in (theorem_bounds, psd_check, rigidity_check)} == {
        "theorem_bounds": [], "psd_check": [], "rigidity_check": []}
