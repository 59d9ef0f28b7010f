"""Every public name of the library is read by the library itself.

The public names are the module-level names of ``src/threadsets/*.py``
that do not start with an underscore, those in ``threadsets.__all__`` and
the public methods of ``Poset`` and ``ChainFamily``.  A name counts as read
when some module of ``src/threadsets`` other than ``__init__.py``, which
only re-exports, loads it outside the name's own definition: a method as an
attribute, a module-level name as an attribute or as a plain name in its
own module or in a module that imports it.  Attributes are matched by
spelling alone, so a method shares its reads with every other attribute of
that name.  Module-level names are written ``module.name`` and methods
``Class.method``.  No module imports a private name from a sibling module
unless ``PRIVATE_IMPORTS`` gives the reason.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import threadsets
from threadsets import families, tuples

SOURCE = Path(threadsets.__file__).parent
CLASSES = ("Poset", "ChainFamily")

# names that only code outside the library reads, each with its reader
ALLOWED = {
    "Poset.le": "bench/oracle.py builds its own order tables from it",
    "ChainFamily.generators": "bench/workloads.py reads a family's "
                              "generators through it",
    "serialize.family_from_dict": "acceptance criterion 6 round-trips "
                                  "family documents through it",
    "serialize.form_from_dict": "acceptance criterion 6 round-trips "
                                "form documents through it",
}

# private names that a sibling module imports, each with its reason
PRIVATE_IMPORTS: dict[str, str] = {}


class _Module(ast.NodeVisitor):
    """The loads of one module, each with its enclosing definitions, and the
    names it imports from sibling modules."""

    def __init__(self, name: str):
        self.scope = [name]
        self.names: set[tuple[str, tuple[str, ...]]] = set()
        self.attributes: set[tuple[str, tuple[str, ...]]] = set()
        self.imports: set[tuple[str, str]] = set()

    def _define(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_ImportFrom(self, node):
        if node.level == 1 and node.module:
            self.imports |= {(node.module, alias.name) for alias in node.names}

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add((node.id, tuple(self.scope)))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.attributes.add((node.attr, tuple(self.scope)))
        self.generic_visit(node)


def _definitions(module: str, tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Public module-level names and public methods of ``CLASSES``, each
    with the path of its definition: the module, then the class and the
    method."""
    paths = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                paths[f"{module}.{name}"] = (module, name)
        if isinstance(node, ast.ClassDef) and node.name in CLASSES:
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    paths[f"{node.name}.{item.name}"] = (module, node.name,
                                                         item.name)
    return paths


def _unread() -> set[str]:
    paths, modules = {}, []
    for file in sorted(SOURCE.glob("*.py")):
        if file.name != "__init__.py":
            tree = ast.parse(file.read_text(encoding="utf-8"))
            paths.update(_definitions(file.stem, tree))
            modules.append(_Module(file.stem))
            modules[-1].visit(tree)
    # a name of __all__ defined only in __init__.py has no reader outside it
    defined = {path[-1] for path in paths.values() if len(path) == 2}
    for name in set(threadsets.__all__) - defined:
        paths[f"__init__.{name}"] = ("__init__", name)
    unread = set()
    for name, path in paths.items():
        module, ident = path[0], path[-1]
        reads = [scope for m in modules for a, scope in m.attributes
                 if a == ident]
        if len(path) == 2:  # a module-level name may also be read plainly
            reads += [scope for m in modules
                      if m.scope[0] == module or (module, ident) in m.imports
                      for n, scope in m.names if n == ident]
        if all(scope[:len(path)] == path for scope in reads):
            unread.add(name)
    return unread


def test_every_public_name_has_a_reader_in_the_library():
    assert _unread() == set(ALLOWED)


def test_private_names_stay_in_their_module():
    imported = set()
    for file in SOURCE.glob("*.py"):
        module = _Module(file.stem)
        module.visit(ast.parse(file.read_text(encoding="utf-8")))
        imported |= {f"{source}.{name}" for source, name in module.imports
                     if name.startswith("_")}
    assert imported == set(PRIVATE_IMPORTS)
    # one walk over a tuple's threads, which bench/tracer.py times under
    # the name families.threads
    assert families.threads is tuples.threads
    assert inspect.isgeneratorfunction(tuples.threads)


def test_verify_reads_families_through_its_report():
    """``verify`` computes thread sets and products only in the report's
    interning methods, so every suite reads its families from one table."""
    module = _Module("verify")
    module.visit(ast.parse((SOURCE / "verify.py").read_text(encoding="utf-8")))
    loads = {name: {scope for n, scope in module.names if n == name}
             for name in ("thread_sets", "compose", "chains_meeting")}
    assert loads == {
        "thread_sets": {("verify", "VerificationReport", "of")},
        "compose": {("verify", "VerificationReport", "product")},
        "chains_meeting": set(),
    }
    assert ("families", "chains_meeting") not in module.imports
