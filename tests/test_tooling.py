"""Source checks on the package itself."""

import ast
from pathlib import Path

import mpinfer

PACKAGE = Path(mpinfer.__file__).parent


def private_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) of every ``_``-prefixed name that a module
    imports from a module of this package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "mpinfer":
            continue
        found += [(node.lineno, module, alias.name) for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_detects_private_imports():
    source = ("from .loco import _error_vector\n"
              "from mpinfer.core import _parse_cell, load_dataset\n"
              "from . import _x\n"
              "from __future__ import annotations\n"
              "from os import _exit\n")
    assert private_imports(source) == [
        (1, "loco", "_error_vector"), (2, "mpinfer.core", "_parse_cell"),
        (3, "", "_x")]


def test_no_module_imports_another_modules_private_names():
    offenders = [f"{path.name}:{line}: {name} from {module or '.'}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, module, name in private_imports(path.read_text())]
    assert offenders == []


def per_element_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of every ``frompyfunc`` or ``vectorize`` attribute or
    import: both run Python per element behind an array interface."""
    names = {"frompyfunc", "vectorize"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in names]
    return sorted(found)


def test_detects_per_element_calls():
    source = ("import numpy as np\n"
              "from numpy import vectorize as v\n"
              "f = np.frompyfunc(abs, 1, 1)\n"
              "g = numpy.vectorize(len)\n"
              "h = np.fromiter(map(abs, []), float)\n")
    assert per_element_calls(source) == [
        (2, "vectorize"), (3, "frompyfunc"), (4, "vectorize")]


def test_no_module_runs_python_per_element_through_numpy():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in per_element_calls(path.read_text())]
    assert offenders == []


def whole_new_point_loo(source: str) -> list[tuple[int, str]]:
    """(line, name) of every use of ``loo_new_all`` or ``patch_sums``, by
    attribute, name or import: both build new-point arrays over all T
    points at once."""
    names = {"loo_new_all", "patch_sums"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in names]
    return sorted(found)


def test_detects_whole_new_point_loo():
    source = ("from .ensemble import patch_sums\n"
              "loo = ens.loo_new_all(X_new)\n"
              "for chunk in ens.loo_new_chunks(X_new):\n"
              "    sums = patch_sums(models, feats, chunk, W)\n"
              "rule = ens.loo_new_all\n")
    assert whole_new_point_loo(source) == [
        (1, "patch_sums"), (2, "loo_new_all"), (4, "patch_sums"),
        (5, "loo_new_all")]


def test_conformal_reads_new_point_loo_in_chunks():
    source = (PACKAGE / "conformal.py").read_text()
    assert whole_new_point_loo(source) == []
    assert "loo_new_chunks" in {node.attr for node in ast.walk(ast.parse(source))
                                if isinstance(node, ast.Attribute)}


def predict_batch_uses(source: str) -> list[tuple[int, str]]:
    """(line, function) of every ``predict_batch`` attribute, with the
    innermost function that holds it ("" at module level): the places
    that predict through a stack's own kernel."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "predict_batch":
                found.append((child.lineno, where))
            visit(child, where)

    visit(ast.parse(source), "")
    return sorted(found)


def test_detects_predict_batch_uses():
    source = ("def _block_predictions(stack, Z):\n"
              "    return stack.predict_batch(Z)\n"
              "class Ensemble:\n"
              "    def cache(self):\n"
              "        def each(m):\n"
              "            return m.predict_batch(self.X)\n"
              "        return each\n"
              "fn = models.predict_batch\n")
    assert predict_batch_uses(source) == [
        (2, "_block_predictions"), (6, "each"), (8, "")]


def test_ensemble_predicts_only_through_block_predictions():
    uses = predict_batch_uses((PACKAGE / "ensemble.py").read_text())
    assert {where for _, where in uses} == {"_block_predictions"}


def per_patch_restacks(source: str) -> list[tuple[int, str]]:
    """(line, field) of every comprehension whose elements read ``.rows``
    or ``.features`` of one of its own loop variables: a per-patch loop
    over index matrices that the patch record array already holds whole."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                 ast.DictComp)):
            continue
        loop_vars = {name.id for gen in node.generators
                     for name in ast.walk(gen.target) if isinstance(name, ast.Name)}
        elements = ([node.key, node.value] if isinstance(node, ast.DictComp)
                    else [node.elt])
        found += [(attr.lineno, attr.attr) for elt in elements
                  for attr in ast.walk(elt)
                  if isinstance(attr, ast.Attribute)
                  and attr.attr in ("rows", "features")
                  and isinstance(attr.value, ast.Name) and attr.value.id in loop_vars]
    return sorted(found)


def test_detects_per_patch_restacks():
    source = ("rows = np.stack([p.rows for p in patches])\n"
              "feats = [q.features for q in ens.patches]\n"
              "ns = {len(p.rows) for p in patches}\n"
              "pairs = list((r.rows, f) for r, f in zip(a, b))\n"
              "by_k = {k: p.features for k, p in enumerate(patches)}\n"
              "fine = [report.rows for _ in range(3)]\n"
              "whole = patches.rows\n")
    assert per_patch_restacks(source) == [
        (1, "rows"), (2, "features"), (3, "rows"), (4, "rows"), (5, "features")]


def test_no_module_restacks_patches_one_by_one():
    offenders = [f"{path.name}:{line}: .{field}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, field in per_patch_restacks(path.read_text())]
    assert offenders == []
