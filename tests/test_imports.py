"""Every name a madlab module imports is used by that module, and every name
it defines is used by the package.

A deleted code path tends to leave its imports behind; this parses each
module with ast and fails on any imported name the module never references.
Names listed in a module's __all__ count as references (re-exports).

A path that only the tests still call leaves its definitions behind. Every
module-level function, class and assigned name (but __all__ and __version__),
and every public method, must be referenced by name somewhere in src/madlab
(an attribute read counts; an assignment does not), be listed in an __all__,
or be a name the benchmark's traced run wraps (perfbench/layers.py).

A debate in memory is its question and answer codes; label grids belong to
the file format. Only debate.py, metrics.py (full_profile) and
the package's __init__.py may name DebateTrajectory. Likewise a question's
truth is an answer code in memory, and only debate.py, which reads and writes
the files' ground_truth labels, may name ground_truth.
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
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def defined_names(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(dotted name as perfbench/layers.py spells it, bare name) of each
    module-level function, class or assigned name and each public method."""
    stem = module[: -len(".py")]
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((f"{stem}.{node.name}", node.name))
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(f"{stem}.{t.id}", t.id) for t in targets
                    if isinstance(t, ast.Name) and t.id not in ("__all__", "__version__")]
        if isinstance(node, ast.ClassDef):
            out += [(f"{stem}.{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")]
    return out


def test_every_definition_is_used_by_the_package(layers):
    trees = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fp:
            trees[module] = ast.parse(fp.read(), filename=module)
    used = set()
    for tree in trees.values():
        used |= referenced_names(tree)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = {dotted for module, tree in trees.items()
              for dotted, name in defined_names(module, tree) if name not in used}
    traced = {name for name, _, _ in layers.TRACED} | {name for name, _ in layers.WRITERS}
    assert unused - traced == set(), "defined in src/madlab, used only outside it"
    # The only allowance: the traced run still wraps these two scalar rollout
    # entry points, which nothing in the package calls.
    assert unused == {"policy.DebateEnv.rollout_debate", "policy.DebateEnv.agent_steps"}


LABEL_GRID_MODULES = {"__init__.py", "debate.py", "metrics.py"}


@pytest.mark.parametrize("module", MODULES)
def test_only_the_file_format_modules_name_debate_trajectory(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fp:
        tree = ast.parse(fp.read(), filename=module)
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    named |= referenced_names(tree)
    # the allowed modules do name it, so the list cannot go stale unnoticed
    assert ("DebateTrajectory" in named) == (module in LABEL_GRID_MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_file_format_module_names_ground_truth(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fp:
        assert ("ground_truth" in fp.read()) == (module == "debate.py")
