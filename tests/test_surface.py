"""The library surface: every public module-level function or class of
legfol, and every public method of a public class, is used inside the
package, or is listed here with its reason.  A method counts as used when
its name is read as an attribute outside its own definition.

A name that only tests call is dead weight unless it is an oracle that tests
compare the package with, a statement of the paper that waits to become a
check kind, or an entry point.  A new library-only helper fails this test
until it gets a caller or a reason; a listed name that gains a caller, or
is deleted, fails it until the list is brought up to date.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "legfol"

REASONS = ("oracle", "paper", "entry point")

LIBRARY_ONLY = {
    "cli.check": "entry point: the `legfol check` command",
    "cli.demo": "entry point: the `legfol demo` command",
    "coiso.pointwise_coisotropy": "oracle: linear-algebra classification "
                                  "that the residuals are compared with",
    "coiso.perturbation_sup_norm": "paper: the perturbation is C^0-small",
    "coiso.singular_normal_data": "paper: the generic singular normal form",
    "bundle.extract_flat_structure": "paper: the flat disk bundle read off "
                                     "a singular coisotropic graph",
    "symplin.LinSubspace.equals": "oracle: the subspace comparison that "
                                  "batched kernel bases are held to",
}


def library_only_names() -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno))

    def public(body):
        return [node for node in body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")]

    unused = set()
    for module, tree in trees.items():
        for node in public(tree.body):
            named = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                named += [(f"{module}.{node.name}.{m.name}", m)
                          for m in public(node.body)]
            for name, defn in named:
                if not any(m != module
                           or not defn.lineno <= line <= defn.end_lineno
                           for m, line in uses.get(defn.name, [])):
                    unused.add(name)
    return unused


def test_every_library_only_name_is_listed():
    found = library_only_names()
    assert sorted(found - LIBRARY_ONLY.keys()) == [], \
        "library-only helpers: give each a caller, a reason or delete it"
    assert sorted(LIBRARY_ONLY.keys() - found) == [], \
        "listed names that are now used or gone: drop them from the list"


def test_every_reason_is_oracle_paper_or_entry_point():
    for name, reason in LIBRARY_ONLY.items():
        assert reason.startswith(REASONS), name
