"""Code with no caller is a candidate for deletion: these tests read the
package's source with ast and fail on an import that its module never uses,
and on a module-level name that no code in the package references."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "probo"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SOURCE.glob("*.py"))}

#: module-level names kept for tools and readers, not for callers
EXEMPT = {"__all__", "__version__"}


def exported(tree):
    """The strings of the module's __all__, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def loaded(tree):
    """Every name the module reads, and every attribute it looks up."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported(tree):
    """(name bound, line) for each import of the module, __future__ left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def defined(tree):
    """(name, line) for each function, class and variable bound at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_no_module_imports_a_name_it_does_not_use():
    unused = [f"{module}:{line} {name}" for module, tree in MODULES.items()
              for name, line in imported(tree)
              if name not in loaded(tree) and name not in exported(tree)]
    assert unused == []


def test_every_module_level_name_is_referenced_in_the_package():
    # a name counts as referenced where any module reads it, looks it up as
    # an attribute or imports it from its module
    referenced = set()
    for tree in MODULES.values():
        referenced |= loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    orphans = [f"{module}:{line} {name}" for module, tree in MODULES.items()
               for name, line in defined(tree)
               if name not in referenced and name not in EXEMPT]
    assert orphans == []


def test_the_checks_read_every_module():
    # a wrong source path would leave both checks nothing to fail on
    assert {"__init__.py", "gp.py", "kernels.py", "acquisition.py", "cli.py"} <= set(MODULES)
