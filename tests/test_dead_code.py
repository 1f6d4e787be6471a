"""Every function and class under src/convmc is reached from a root, and
every optional parameter is set by some call under src/convmc.

Reachability.  The roots are:
  * module-level code: every top-level statement that is not a def or a
    class (the CLI's parser and entry point, the bundled-model tables);
  * the functions and methods the benchmark's tracer wraps (TARGETS in
    perfbench/tracer.py, read from its file, never written);
  * the names on a "Library API:" line of a module docstring, in that
    module.
A reached definition reaches every definition whose name it reads, as a
name or as an attribute, compared bare: a method counts as reached once
any attribute of its name is read.  A reached class contributes only its
bases, decorators, non-method body and dunder methods; its other methods
are reached by name.  A function's reads leave out the names it binds
itself (parameters, assignment, loop, comprehension, with and except
targets), which are its locals.  Imports read nothing, and a function
that only calls itself stays unreached.

Options.  A parameter with a default is set by a call under src/convmc
when the call passes it by keyword or by position, or passes *args or
**kwargs.  Calls are matched by the bare name of the callee, and a call
to a class counts as a call to its __init__.  OPTION_ALLOWED lists the
defaults that stay although nothing under src/ sets them, each with its
reason; an entry that no longer applies fails as stale.

Imports.  Every name a module under src/convmc or tests/ binds by import
(__future__ aside) is read in that module, as a name or in a quoted
annotation.  IMPORT_ALLOWED lists re-exports, each with its reason, and
fails as stale the same way.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "convmc"
TRACER = ROOT / "perfbench" / "tracer.py"

API_TAG = "Library API:"

# (module, function qualname, parameter): reason
OPTION_ALLOWED = {
    ("cli", "main", "argv"):
        "the console script calls main() with no argument, tests pass argv",
    ("transfer", "transfer_linfty", "contraction"):
        "tests transfer along contractions other than the canonical one",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class Definition:
    """One def or class, with the definitions directly inside it."""
    module: str
    qualname: str
    node: ast.AST
    members: list[Definition] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name


def _inner_defs(node):
    """The definitions in node's code, not those nested inside them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            yield child
        else:
            yield from _inner_defs(child)


def _collect(module: str, node, prefix: str, out: list) -> list:
    found = []
    for child in _inner_defs(node):
        d = Definition(module, prefix + child.name, child)
        out.append(d)
        found.append(d)
        d.members = _collect(module, child, d.qualname + ".", out)
    return found


def definitions() -> list[Definition]:
    out: list[Definition] = []
    for module, tree in _modules().items():
        _collect(module, tree, "", out)
    return out


def _read_names(nodes, local=frozenset()) -> set[str]:
    """Names and attributes read by nodes, not descending into the
    definitions nested in them, which are definitions of their own.  A
    name in local is a local variable, so reading it reads nothing."""
    out: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(getattr(node, "ctx", None), ast.Store):
            pass
        elif isinstance(node, ast.Name):
            if node.id not in local:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, DEFS))
    return out


def _bound_names(node) -> set[str]:
    """The names a def binds itself: its parameters (and those of its
    lambdas), and the targets of its assignments, loops, comprehensions,
    with blocks and except clauses, not those of the definitions nested
    in it.  A read of one of them is a read of a local, not of a
    definition."""
    out: set[str] = set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, ast.arg):
            out.add(child.arg)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            out.add(child.id)
        elif isinstance(child, ast.ExceptHandler) and child.name:
            out.add(child.name)
        stack.extend(c for c in ast.iter_child_nodes(child)
                     if not isinstance(c, DEFS))
    return out


def _own_reads(node) -> set[str]:
    """What a def reads: decorators, defaults, annotations and body, less
    the names it binds itself.  What a class reads: decorators, bases and
    the statements that are not definitions."""
    if isinstance(node, ast.ClassDef):
        return _read_names(node.decorator_list + node.bases + node.keywords
                           + [n for n in node.body
                              if not isinstance(n, DEFS)])
    return _read_names(node.decorator_list + [node.args] + node.body
                       + ([node.returns] if node.returns else []),
                       _bound_names(node))


def traced() -> set[tuple[str, str]]:
    """(module, qualname) of every function and method the tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {(module, attr) for _, module, attr in mod.TARGETS}


def library_api() -> set[tuple[str, str]]:
    """(module, name) for every name on a 'Library API:' docstring line."""
    out = set()
    for module, tree in _modules().items():
        for line in (ast.get_docstring(tree) or "").splitlines():
            if line.startswith(API_TAG):
                for name in line[len(API_TAG):].replace(",", " ").split():
                    out.add((module, name))
    return out


def unreached() -> list[str]:
    defs = definitions()
    by_name: dict[str, list[Definition]] = {}
    for d in defs:
        if not _is_dunder(d.name):
            by_name.setdefault(d.name, []).append(d)
    roots = traced() | library_api()
    todo = [d for d in defs if (d.module, d.qualname) in roots
            or (d.module, d.name) in roots]
    names: set[str] = set()
    for tree in _modules().values():
        names |= _read_names(n for n in tree.body if not isinstance(n, DEFS))
    followed: set[str] = set()
    reached: set[Definition] = set()
    while todo or names - followed:
        for name in names - followed:
            followed.add(name)
            todo.extend(by_name.get(name, []))
        while todo:
            d = todo.pop()
            if d not in reached:
                reached.add(d)
                names |= _own_reads(d.node)
                todo.extend(m for m in d.members if _is_dunder(m.name))
    # a dunder method goes with its class
    return sorted(f"{d.module}.{d.qualname}" for d in defs
                  if d not in reached and not _is_dunder(d.name))


def test_every_definition_is_reached_from_a_root():
    names = {(d.module, d.name) for d in definitions()}
    assert library_api() <= names, \
        f"no such library API: {sorted(library_api() - names)}"
    missing = unreached()
    assert not missing, f"unreached: {missing}"


# -- options ------------------------------------------------------------

def _callee(call: ast.Call) -> str | None:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def unset_options() -> set[tuple[str, str, str]]:
    """(module, qualname, parameter) for every parameter with a default
    that no call under src/convmc sets."""
    defs = definitions()
    classes = {d.name for d in defs if isinstance(d.node, ast.ClassDef)}
    calls: dict[str, list[ast.Call]] = {}
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                name = _callee(node)
                calls.setdefault("__init__" if name in classes else name,
                                 []).append(node)
    out = set()
    for d in defs:
        node = d.node
        if isinstance(node, ast.ClassDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        # a call through an instance or class passes self or cls itself
        skip = 1 if positional and positional[0].arg in ("self", "cls") \
            else 0
        with_default = positional[len(positional) - len(args.defaults):]
        params = [(positional.index(a) - skip, a.arg) for a in with_default]
        params += [(None, a.arg) for a, dflt in
                   zip(args.kwonlyargs, args.kw_defaults) if dflt is not None]
        for pos, param in params:
            if not any(_sets(call, pos, param)
                       for call in calls.get(node.name, [])):
                out.add((d.module, d.qualname, param))
    return out


def _sets(call: ast.Call, pos: int | None, param: str) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def test_every_option_is_set_by_some_caller():
    found = unset_options()
    extra = found - set(OPTION_ALLOWED)
    assert not extra, f"defaults no caller sets: {sorted(extra)}"
    stale = set(OPTION_ALLOWED) - found
    assert not stale, f"stale allowlist: {sorted(stale)}"


# -- imports ------------------------------------------------------------

TESTS = ROOT / "tests"

# (file, name): reason, for a name a module imports only for others to
# import from it.  None does today: graded re-exports matrices.add_term
# but reads it too.
IMPORT_ALLOWED: dict[tuple[str, str], str] = {}


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names a module binds by import, with the line of each;
    __future__ imports bind nothing."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loaded(tree: ast.Module) -> set[str]:
    """The names a module reads anywhere, those in quoted annotations
    included."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
           and not isinstance(node.ctx, ast.Store)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out |= {n.id for n in ast.walk(ast.parse(node.value,
                                                         mode="eval"))
                        if isinstance(n, ast.Name)}
    return out


def unused_imports() -> set[tuple[str, str]]:
    """(file, name) for every imported name its module never reads."""
    out = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = _loaded(tree)
        rel = path.relative_to(ROOT).as_posix()
        out |= {(rel, name) for name in _imported(tree) if name not in loaded}
    return out


def test_every_import_is_read():
    unused = unused_imports()
    stale = set(IMPORT_ALLOWED) - unused
    assert not stale, f"allowed but read after all: {sorted(stale)}"
    assert not unused - set(IMPORT_ALLOWED), \
        f"imported and never read: {sorted(unused - set(IMPORT_ALLOWED))}"
