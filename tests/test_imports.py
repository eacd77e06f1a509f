"""Every name a madlab module imports is used by that module.

A deleted code path tends to leave its imports behind; this parses each
module with ast and fails on any imported name the module never references.
Names listed in a module's __all__ count as references (re-exports).
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "madlab")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))

# perfbench's tracer test patches these bindings, so the modules keep them.
ALLOWED = {("harness.py", "full_profile"), ("optim.py", "full_profile")}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    # A quoted annotation ("SummaryRow") references the names inside the quotes.
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= referenced_names(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fp:
        tree = ast.parse(fp.read(), filename=module)
    unused = imported_names(tree) - referenced_names(tree)
    assert unused - {name for mod, name in ALLOWED if mod == module} == set()


def test_allowed_imports_are_still_imported():
    for module, name in ALLOWED:
        with open(os.path.join(SRC, module), encoding="utf-8") as fp:
            assert name in imported_names(ast.parse(fp.read()))
