"""Import hygiene for the package and its tests: no unused imports in
either, no dangling exports, no module but __init__.py exporting a name
it imported, and no definition, method or property that only the tests
reach, save a short keep-list; exporting a name does not count as using
it."""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "tierbroker"
MODULES = sorted(PACKAGE.glob("*.py"))


def exported(tree):
    """The names listed in a module-level __all__, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def defined(tree):
    """The names a module binds at top level with def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def imported(tree):
    """(bound name, line) for every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                yield name.partition(".")[0], node.lineno


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    names = exported(ast.parse(path.read_text(encoding="utf-8")))
    module_name = "tierbroker" if path.stem == "__init__" else f"tierbroker.{path.stem}"
    module = importlib.import_module(module_name)
    assert sorted(name for name in names if not hasattr(module, name)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_exports_are_defined_in_their_module(path):
    # A name belongs in the __all__ of the module that defines it; only
    # the package's __init__.py gathers names from the others.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(exported(tree) - defined(tree)) == []


BENCH = TESTS.parent / "bench"
# Definitions that only tests reach, each kept on purpose.
TEST_ONLY = {
    "scenario_to_dict",  # writes scenarios for the scenario-format round-trip tests
    # The registry's SOA layer, which the paper names: discovery, matching,
    # composition and replacement. No CLI command or simulation uses it yet.
    "Registry.compose_services",
    "Registry.deregister_service",
    "Registry.discover_service",
    "Registry.replace_with_best_match",
}


def is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def definitions(tree):
    """(qualified name, name) of every top-level def and class in tree and
    of every method and property of its classes, dunders aside."""
    for top in tree.body:
        if not is_def(top):
            continue
        yield top.name, top.name
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if is_def(node) and not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{top.name}.{node.name}", node.name


def members(cls):
    """The names a class binds: its defs, its class-level assignments and
    annotations, its __slots__ and what its methods assign to self."""
    names = set()
    for node in cls.body:
        if is_def(node):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                names.update(ast.literal_eval(node.value))
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
    return names


def references(tree, classes):
    """(name, owner, receiver, called) for every Name, Attribute and import
    alias in tree, classes mapping each package class to its members.

    owner is the qualified name of the top-level def or class, or of the
    method, it sits in, or None. receiver is the class an attribute is
    read from when that is known: the enclosing class for `self.x` and
    `cls.x` where that class binds x, the class for `SomeClass.x`, and
    the annotation for `p.x` where p is a parameter annotated with a
    package class; otherwise None. called is whether the attribute is
    called.
    """
    local = {top.name: members(top) for top in tree.body if isinstance(top, ast.ClassDef)}
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    typed = {}  # id of a parameter's Name node -> the package class it is annotated with
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = function.args
            params = {
                arg.arg: arg.annotation.id
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                if isinstance(arg.annotation, ast.Name) and arg.annotation.id in classes
            }
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and node.id in params:
                    typed[id(node)] = params[node.id]
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            parts = [(node, f"{top.name}.{node.name}" if is_def(node) else top.name)
                     for node in top.body]
            parts += [(node, top.name) for node in top.bases + top.decorator_list]
        else:
            parts = [(top, top.name if is_def(top) else None)]
        for part, owner in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Name):
                    yield node.id, owner, None, False
                elif isinstance(node, ast.Attribute):
                    receiver, value = None, node.value
                    if isinstance(value, ast.Name):
                        if value.id in ("self", "cls") and isinstance(top, ast.ClassDef):
                            if node.attr in local[top.name]:
                                receiver = top.name
                        elif id(value) in typed:
                            receiver = typed[id(value)]
                        elif value.id in classes or value.id in local:
                            receiver = value.id
                    yield node.attr, owner, receiver, id(node) in called
                elif isinstance(node, ast.alias):
                    yield node.name.rpartition(".")[2], owner, None, False


def test_every_definition_is_reached_outside_tests():
    # A def, class, method or property must be used by the package or the
    # benchmark, not only by its own body (a class's by its own methods) or
    # the tests. The package's __init__.py re-exports names without using
    # them, so it reaches none. A method is reached by an attribute of its
    # name read from its own class (`self.m` inside it, `Class.m`), or from
    # an unknown receiver when no other package class binds that name;
    # where one does, such a read may be of the other class's member, save
    # a call when no other package class defines a method of that name.
    sources = [p for p in MODULES if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    class_defs = [
        top
        for path in sources
        if path.parent == PACKAGE
        for top in trees[path].body
        if isinstance(top, ast.ClassDef)
    ]
    classes = {top.name: members(top) for top in class_defs}
    binders, definers = {}, {}  # name -> package classes binding it, defining it
    for top in class_defs:
        for name in classes[top.name]:
            binders.setdefault(name, set()).add(top.name)
        for node in top.body:
            if is_def(node):
                definers.setdefault(node.name, set()).add(top.name)
    reached = {}  # name -> {(file, owner, receiver, called)} of its references
    for path, tree in trees.items():
        for name, owner, receiver, called in references(tree, classes):
            reached.setdefault(name, set()).add((path, owner, receiver, called))

    def inside(owner, qualified):
        return owner is not None and (owner == qualified or owner.startswith(qualified + "."))

    def reaches(reference, path, qualified, name):
        where, owner, receiver, called = reference
        if where == path and inside(owner, qualified):
            return False
        cls, dot, _ = qualified.rpartition(".")
        if not dot:  # a top-level def or class
            return True
        if receiver is not None:
            return receiver == cls
        others = binders[name] - {cls}
        return not others or called and not definers[name] - {cls}

    unreached = [
        qualified
        for path in sources
        if path.parent == PACKAGE
        for qualified, name in definitions(trees[path])
        if not any(reaches(ref, path, qualified, name) for ref in reached.get(name, ()))
    ]
    # The keep-list holds nothing a change has since put to use.
    assert sorted(unreached) == sorted(TEST_ONLY)


def enclosing(tree, prefix, match):
    """Qualified name of the def around each node of tree that match accepts."""
    found = []

    def walk(node, name):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{name}.{node.name}"
        if match(node):
            found.append(name)
        for child in ast.iter_child_nodes(node):
            walk(child, name)

    walk(tree, prefix)
    return found


def divisions_by_cpu_speed(tree, prefix):
    """Qualified name of the def around each `x / <expr>.cpu_speed` in tree."""
    return enclosing(tree, prefix, lambda node: (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and isinstance(node.right, ast.Attribute)
        and node.right.attr == "cpu_speed"
    ))


def test_one_spelling_of_a_pair_cost():
    # Execution time and the charge are each written once; placement,
    # billing and the simulator read them there, so the charge a placement
    # projects is the charge the consumer is billed, to the bit.
    found = [
        name
        for path in MODULES
        for name in divisions_by_cpu_speed(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert sorted(found) == ["billing.compute_charge", "model.pair_cost"]


def test_one_place_builds_a_pair():
    # What is fixed for one service on one node (its times, its charge and
    # whether it fits) is computed when the simulator builds the pair, and
    # read from the pair everywhere else.
    tree = ast.parse((PACKAGE / "simulation.py").read_text(encoding="utf-8"))
    readers = enclosing(tree, "simulation", lambda node: (
        isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
        and node.id in {"pair_cost", "compute_charge", "fits"}
    ))
    assert readers == ["simulation.Simulation._pair"] * 3


def test_one_event_loop():
    # Every event waits on the one heap: Simulation.run pops it in a single
    # loop, and nothing else pops it.
    tree = ast.parse((PACKAGE / "simulation.py").read_text(encoding="utf-8"))
    (simulation,) = [n for n in tree.body if getattr(n, "name", None) == "Simulation"]
    (run,) = [n for n in simulation.body if getattr(n, "name", None) == "run"]
    assert sum(isinstance(node, ast.While) for node in ast.walk(run)) == 1
    poppers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Name, ast.Attribute))
        and "heappop" in (node.id if isinstance(node, ast.Name) else node.attr)
    }
    assert poppers == {"run"}
