"""No function or class under src/convmc goes unreferenced by accident.

A definition (def or class, at any depth; dunder methods aside) counts
as referenced when its name occurs anywhere under src/convmc as a name
or as an attribute.  The names are compared bare, so a method counts as
referenced once any attribute of that name is read: the check catches
definitions nothing could reach, not every unused method.

The set of unreferenced definitions must equal ALLOWED plus any of the
names the benchmark's tracer wraps (TARGETS in perfbench/tracer.py, read
from its file, never written).  A new unreferenced function fails, and
so does an ALLOWED entry that is referenced again or deleted: take it
off the list.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "convmc"
TRACER = ROOT / "perfbench" / "tracer.py"

# every entry is called from tests/ only
ALLOWED = {
    # bundled models outside the CLI registry
    "cp3_coalgebra", "hopf_tau", "quillen_s2",
    # the bar-cobar adjunction and its checks
    "algebra_map_to_mc", "coalgebra_map_to_mc", "coalgebra_morphism",
    "counit_quasi_iso_check", "universal_factorization",
    # library API
    "coherence_residual", "direction", "evaluate", "expand_vec",
    "from_tables", "pullback", "push_path", "pushforward", "sphere_pi_n",
    "strict_infinity",
}


def traced_names() -> set[str]:
    """The bare names of the functions and methods the tracer wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {attr.split(".")[-1] for _, _, attr in mod.TARGETS}


def unreferenced_definitions() -> set[str]:
    defs: set[str] = set()
    refs: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.add(node.name)
            elif isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return {name for name in defs - refs
            if not (name.startswith("__") and name.endswith("__"))}


def test_unreferenced_definitions_are_the_allowed_ones():
    found = unreferenced_definitions()
    traced = traced_names()
    assert not ALLOWED & traced, sorted(ALLOWED & traced)
    extra = found - ALLOWED - traced
    assert not extra, f"unreferenced: {sorted(extra)}"
    assert not ALLOWED - found, f"stale allowlist: {sorted(ALLOWED - found)}"
