"""The library surface: every public module-level function or class of
legfol, and every public method of a public class, is used inside the
package, or is listed here with its reason.  A method counts as used when
its name is read as an attribute outside its own definition.

A name that only tests call is dead weight unless it is an oracle that tests
compare the package with, a statement of the paper that waits to become a
check kind, or an entry point.  A new library-only helper fails this test
until it gets a caller or a reason; a listed name that gains a caller, or
is deleted, fails it until the list is brought up to date.

Likewise every defaulted parameter of a function the package calls is set
by some call inside the package: a default that no caller overrides is a
constant, not an option.
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
    "bundle.transport_batch": "oracle: the one-bundle sweep that every row "
                              "of a joint sweep equals bit for bit",
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


def _parameters(fn: ast.FunctionDef) -> list[tuple[str, int | None, bool]]:
    """(name, position or None if keyword-only, has a default) of each
    parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(a.arg, i, i >= first) for i, a in enumerate(positional)] + [
        (a.arg, None, d is not None)
        for a, d in zip(args.kwonlyargs, args.kw_defaults)]


def _argument(call: ast.Call, name: str, index: int | None):
    """The expression a call passes for a parameter, or None if it passes
    none or only through *args or **kwargs."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    for i, a in enumerate(call.args if index is not None else ()):
        if isinstance(a, ast.Starred):
            return None
        if i == index:
            return a
    return None


def unset_defaults() -> set[str]:
    """module.[Class.]function.parameter for each defaulted parameter of a
    function or method that the package calls, where no call in the package
    sets it.

    Calls are matched to definitions by name.  A call sets a parameter when
    it passes a value by keyword or by position, except that a parameter of
    the calling function passed on unchanged sets it only if that parameter
    is itself set.  A value passed through *args or **kwargs is not seen.
    Every parameter of a function that the package does not call, or that
    LIBRARY_ONLY lists, is set: it comes from outside the package.
    """
    defs = []  # (qualified name, definition, defined in a class)
    for path in SRC.glob("*.py"):
        scopes = [(path.stem, ast.parse(path.read_text()).body, False)]
        while scopes:
            prefix, body, in_class = scopes.pop()
            for node in body:
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}.{node.name}", node.body, True))
                elif isinstance(node, ast.FunctionDef):
                    defs.append((f"{prefix}.{node.name}", node, in_class))
    calls: dict[str, list] = {}  # callee name: [(call, caller, caller def)]
    for qual, fn, _ in defs:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append((node, qual, fn))

    is_set = {(qual, name) for qual, fn, _ in defs
              if fn.name not in calls or qual in LIBRARY_ONLY
              for name, _, _ in _parameters(fn)}

    def sets(value, caller: str, caller_fn: ast.FunctionDef) -> bool:
        forwarded = isinstance(value, ast.Name) and value.id in {
            name for name, _, _ in _parameters(caller_fn)}
        return value is not None and (
            not forwarded or (caller, value.id) in is_set)

    changed = True
    while changed:
        changed = False
        for qual, fn, in_class in defs:
            params = _parameters(fn)
            # a method called as obj.name(...) gets self or cls for free
            bound = in_class and params[:1] != [] \
                and params[0][0] in ("self", "cls")
            for name, index, _ in params[1:] if bound else params:
                if (qual, name) in is_set:
                    continue
                if bound and index is not None:
                    index -= 1
                if any(sets(_argument(call, name, index), caller, caller_fn)
                       for call, caller, caller_fn in calls.get(fn.name, [])
                       if not bound or index is None
                       or isinstance(call.func, ast.Attribute)):
                    is_set.add((qual, name))
                    changed = True
    return {f"{qual}.{name}" for qual, fn, _ in defs if fn.name in calls
            for name, _, default in _parameters(fn)
            if default and (qual, name) not in is_set}


def test_every_default_is_set_by_a_caller():
    assert sorted(unset_defaults()) == [], \
        "defaults no caller sets: make each a module constant"
