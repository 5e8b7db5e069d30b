"""Every name a cmwitness or test module imports is used there or re-exported.

A name counts as used when it appears as an identifier anywhere in the
module outside the import statements (string annotations included).
Every name the package root imports counts as re-exported: its import
list is the list of public names.  An import whose line carries
``# noqa: F401`` is kept for its side effect and not checked.  No
package module imports ``random``: every check in the package is exact.
Every module-level function and class of the package is read by some
package module other than ``__init__``, so none exists only for tests;
the only exceptions are the names in ``TRACER_ONLY``, which only tests
and the benchmark's tracer read.  The monomial key layout stays behind
poly.py: gcd.py names no ``FIELD_BITS``, reads no private attribute
of ``BaseRing``, reads no term dict, unpacks no key and builds no Poly
from a term dict, and cli.py reads no term dict and unpacks no key.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import cmwitness
from cmwitness.poly import BaseRing

PACKAGE_DIR = Path(cmwitness.__file__).resolve().parent
PACKAGE_MODULES = sorted(PACKAGE_DIR.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
MODULES = PACKAGE_MODULES + TEST_MODULES
TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Definitions that no package module reads but the tracer wraps by name:
# they stay in the package while perfbench/tracer.py's SPAN_TARGETS
# lists them.  bareiss_rank is also the tests' reference rank.
TRACER_ONLY = {
    "q_shape", "fraction_kernel", "solve_fraction_system", "f2_nullspace", "bareiss_rank",
}


def imported_names(tree, lines):
    """Names bound by the module's imports (``__future__`` and noqa excluded)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and (
            "# noqa: F401" in lines[node.lineno - 1]
        ):
            continue
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Identifiers read in the module, including those in string annotations."""
    out = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                out.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    imported = imported_names(tree, text.splitlines())
    keep = set(imported) if path == PACKAGE_DIR / "__init__.py" else used_names(tree)
    unused = [n for n in imported if n not in keep]
    assert not unused, "%s imports unused names %s" % (path.name, unused)


def imported_modules(tree):
    """Top-level names of the modules a module imports from or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_no_random():
    users = [
        p.name
        for p in PACKAGE_MODULES
        if "random" in imported_modules(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert not users, "package modules import random: %s" % users


def traced_names():
    """Functions the benchmark's tracer wraps by name from outside."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name for _, name in module.SPAN_TARGETS}


def package_definitions_and_reads():
    """(module, name) of each top-level definition, and every name read."""
    defined = []
    read = set()
    for path in PACKAGE_MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= used_names(tree)
        defined += [
            (path.name, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    return defined, read


def test_every_definition_is_read_in_the_package():
    defined, read = package_definitions_and_reads()
    unread = [d for d in defined if d[1] not in read | TRACER_ONLY]
    assert not unread, "defined but never read in the package: %s" % unread


def test_tracer_only_names_are_traced_and_unread():
    defined, read = package_definitions_and_reads()
    assert TRACER_ONLY <= {name for _, name in defined}
    assert TRACER_ONLY <= traced_names(), "not traced: %s" % (TRACER_ONLY - traced_names())
    assert not TRACER_ONLY & read, "read in the package: %s" % (TRACER_ONLY & read)


def test_gcd_reads_no_key_layout():
    text = (PACKAGE_DIR / "gcd.py").read_text(encoding="utf-8")
    tree = ast.parse(text)
    ring = BaseRing(("X", "Y"))
    members = [*vars(ring), *dir(BaseRing)]
    private = {n for n in members if n.startswith("_") and not n.startswith("__")}
    assert {"_var_keys", "_shifts", "_key_limit"} <= private
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attributes & private, "gcd.py reads %s" % sorted(attributes & private)
    names = used_names(tree) | attributes | set(imported_names(tree, text.splitlines()))
    assert "FIELD_BITS" not in names
    read = names & {"_terms", "unpack", "_from_canonical"}
    assert not read, "gcd.py reads %s" % sorted(read)


def test_cli_reads_no_key_layout():
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    read = (used_names(tree) | attributes) & {"_terms", "unpack"}
    assert not read, "cli.py reads %s" % sorted(read)
