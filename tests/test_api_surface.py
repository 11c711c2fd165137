"""Every public name the library defines has a user outside the tests.

A public module-level function or class, or a public method, must be
referenced by name somewhere in ``src/`` other than its own definition, in
``perfbench/``, in ``fedmvc.__all__``, or in README.md, whose library
section is the one list of entry points kept for outside callers. A name
only tests call is test-only code in the library: delete it, or move it to
``tests/helpers.py``.

Likewise every parameter default in ``src/`` is overridden, by name or by
position, by some call in ``src/``, ``perfbench/`` or ``tools/``; a default
no such call sets is a settable value nothing sets.

And every public field of a dataclass in ``src/``, and every public
attribute an ``__init__`` there sets on ``self``, is read as an attribute
somewhere in ``src/``, ``perfbench/`` or ``tools/``, or named in README.md;
a value nothing reads is state kept for no one.
"""

import ast
import re
from pathlib import Path

import fedmvc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fedmvc"
BENCH = ROOT / "perfbench"


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each public module-level function and class, and of
    each public method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_public(node.name):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item.lineno) for item in node.body
                    if isinstance(item, ast.FunctionDef) and _is_public(item.name)]
    return out


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring nodes of the module, its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name a module reads: variables, attributes, imported names and
    identifier-like strings (as ``getattr`` and the benchmark's tracer take
    them), docstrings excepted."""
    skip = _docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in skip):
            out.add(node.value)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_public_name_has_a_user_outside_the_tests():
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    used = set(fedmvc.__all__)
    for tree in trees.values():
        used |= _references(tree)
    for path in sorted(BENCH.glob("*.py")):
        used |= _references(_parse(path))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    defined = [(path.name, line, name) for path, tree in trees.items()
               for name, line in _definitions(tree)]
    # a walk that found no definitions would pass vacuously
    assert {"run_federation", "ModelParams", "clone", "kmeans"} <= {
        name for _, _, name in defined}
    unused = [f"{module}:{line} {name}" for module, line, name in defined
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


# (module, function, parameter) defaults no call sets, each kept on purpose:
# ``main``'s ``argv`` is the seam through which the tests drive the CLI
DEFAULT_EXEMPT = {("cli.py", "main", "argv")}


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, int, str, int | None]]:
    """(callable name, line, parameter, position) of each parameter with a
    default, over every function, method and nested function. A method's
    position does not count ``self``; a keyword-only parameter has
    position None. ``__init__`` is named after its class, the name its
    callers use; a dataclass's generated ``__init__`` is not in the tree."""
    out = []
    classes = {id(item): node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if id(node) in classes and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list):
            positional = positional[1:]
        name = classes[id(node)] if node.name == "__init__" and id(node) in classes \
            else node.name
        first = len(positional) - len(args.defaults)
        out += [(name, node.lineno, a.arg, first + i)
                for i, a in enumerate(positional[first:])]
        out += [(name, node.lineno, a.arg, None)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls(tree: ast.Module) -> list[tuple[str, int, set[str]]]:
    """(called name, positional arguments before any ``*args``, keyword
    names) of every call; ``**kwargs`` names no parameter."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name is None:
            continue
        positional = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break
            positional += 1
        out.append((name, positional, {k.arg for k in node.keywords if k.arg}))
    return out


def test_every_default_is_set_by_some_call():
    """A parameter's default that every call keeps is a constant spelled as
    a knob: make it one, or give the call that needs another value."""
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    calls = []
    for path in [*trees, *sorted(BENCH.glob("*.py")),
                 *sorted((ROOT / "tools").glob("*.py"))]:
        calls += _calls(trees.get(path) or _parse(path))
    defaulted = [(path.name, *entry) for path, tree in trees.items()
                 for entry in _defaulted_parameters(tree)]
    # a walk that found no defaults would pass vacuously
    assert {("main", "argv"), ("kmeans", "seed"), ("affine", "relu")} <= {
        (name, param) for _, name, _, param, _ in defaulted}
    unset = [f"{module}:{line} {name}({param})"
             for module, name, line, param, position in defaulted
             if (module, name, param) not in DEFAULT_EXEMPT
             and not any(called == name and (param in keywords or (
                 position is not None and given > position))
                 for called, given, keywords in calls)]
    assert unset == []


# (module, class, attribute) nothing reads, each kept on purpose: the
# restart objectives wait on the planned run trace, which either records
# them or sees them deleted
ATTRIBUTE_EXEMPT = {("evaluation.py", "MetricsReport", "restart_objectives")}


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
    return name == "dataclass"


def _attributes(tree: ast.Module) -> list[tuple[str, int, str]]:
    """(class, line, attribute) of each public field of a module-level
    dataclass and each public attribute a module-level class's
    ``__init__`` assigns on ``self``."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if any(_is_dataclass(d) for d in node.decorator_list):
            out += [(node.name, item.lineno, item.target.id) for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name) and _is_public(item.target.id)]
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef) and item.name == "__init__"):
                continue
            out += [(node.name, sub.lineno, sub.attr) for sub in ast.walk(item)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                    and _is_public(sub.attr)]
    return out


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Every attribute name a module reads; an assignment's target is not
    a read."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_field_and_attribute_is_read():
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for path in [*trees, *sorted(BENCH.glob("*.py")),
                 *sorted((ROOT / "tools").glob("*.py"))]:
        read |= _attribute_reads(trees.get(path) or _parse(path))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = [(path.name, *entry) for path, tree in trees.items()
             for entry in _attributes(tree)]
    # a walk that found no fields or attributes would pass vacuously
    assert {("ExperimentConfig", "seed"), ("Adam", "lr"),
            ("MetricsReport", "restart_objectives")} <= {
        (cls, name) for _, cls, _, name in found}
    unread = [f"{module}:{line} {cls}.{name}"
              for module, cls, line, name in found
              if (module, cls, name) not in ATTRIBUTE_EXEMPT
              and name not in read and not re.search(rf"\b{name}\b", readme)]
    assert unread == []
