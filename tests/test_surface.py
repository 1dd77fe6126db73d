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
constant, not an option.  No module reads a private name that another
module defines.  And every module-level memo is listed with the
measurement that keeps it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "legfol"

REASONS = ("oracle", "paper", "entry point")

LIBRARY_ONLY = {
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


# Every module-level functools.lru_cache or functools.cache of the package,
# with the measurement that keeps it.  "Steady" is a repeated in-process
# pass of the workload at seed 1 with the memo replaced by the function it
# wraps, alternating with the memo in place; "first" is the first pass in a
# fresh process.  A memo that no measurement keeps is cost without pay: a
# new memo fails this test until it is listed, and a listed one that is gone
# fails it until the list is brought up to date.
MEMOS = {
    "fields._kernel": "one kernel per generated source, which the run "
                      "plan's sweep groups key on; first holonomy-transport "
                      "pass +22% without it (7/8 pairs)",
    "fields.compile_exprs": "steady passes +13% to +15% without it on every "
                            "workload (20/20 pairs each)",
    "forms.d_coeffs": "steady pointwise-identities pass +2.4% without it "
                      "(17/20 pairs)",
    "forms.top_coeff": "steady pointwise-identities pass +3.5% without it "
                       "(16/20 pairs), first pass +17% (7/8)",
    "coiso._lambda_coeffs": "with _scan_exprs: steady scan-grid pass +2.3% "
                            "without both (25/40 pairs)",
    "coiso._scan_exprs": "kept only jointly: steady scan-grid pass +2.3% "
                         "without both it and _lambda_coeffs (25/40 "
                         "pairs); alone no pay shown, +0.6% (11/20) "
                         "steady and +0.1% (3/8) first pass",
    "germ._pencil": "first holonomy-transport pass +19% without it "
                    "(7/8 pairs)",
    "bundle._fiber_grid": "steady holonomy-transport pass +6.1% without it "
                          "(18/20 pairs)",
    "bundle._ccl_draws": "steady holonomy-transport pass +13% without it "
                         "(16/20 pairs)",
}


def _memoizes(node) -> bool:
    return any(getattr(n, "attr", getattr(n, "id", None))
               in ("lru_cache", "cache") for n in ast.walk(node))


def module_memos() -> set[str]:
    """module.name of each module-level function that functools.lru_cache
    or functools.cache wraps, as a decorator or in an assignment."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) \
                    and any(map(_memoizes, node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Assign) and _memoizes(node.value):
                found |= {f"{path.stem}.{t.id}" for t in node.targets
                          if isinstance(t, ast.Name)}
    return found


def test_every_memo_is_listed():
    found = module_memos()
    assert sorted(found - MEMOS.keys()) == [], \
        "memos with no measurement: measure each or delete it"
    assert sorted(MEMOS.keys() - found) == [], \
        "listed memos that are gone: drop them from the list"


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


# The symbolic Cartan calculus is the tests' second engine (tests/oracles.py):
# the package contracts arrays of values and first partials instead.
SYMBOLIC_OPERATORS = {"interior", "lie_derivative", "lie_bracket",
                      "pushforward_field"}


def symbolic_operator_uses() -> list[str]:
    """module:line of each definition or call in the package of a symbolic
    operator, or of VectorFieldExpr.apply."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) \
                    and node.name in SYMBOLIC_OPERATORS:
                found.append(f"{path.stem}:{node.lineno} defines {node.name}")
            elif isinstance(node, ast.ClassDef) \
                    and node.name == "VectorFieldExpr":
                found += [f"{path.stem}:{m.lineno} defines {node.name}.apply"
                          for m in node.body if isinstance(m, ast.FunctionDef)
                          and m.name == "apply"]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                if name in SYMBOLIC_OPERATORS | {"apply"}:
                    found.append(f"{path.stem}:{node.lineno} calls {name}")
    return found


def test_no_symbolic_cartan_calculus():
    assert symbolic_operator_uses() == [], \
        "contract values and partials on arrays; the symbolic operators " \
        "are the oracle in tests/oracles.py"


# A 1-form and its d are evaluated in one batch (forms.jet), the top
# coefficient of alpha ^ (d alpha)^n is one Pfaffian expression
# (forms.top_coeff), beta ^ d beta has one definition on those arrays
# (forms.frobenius), the residual equations are its components on a graph's
# jet (coiso.residual_values), and the restricted forms of a graph and of a
# germ's zero section are built in closed form; the exterior algebra of
# sparse forms, the symbolic 2-form matrices, residual equations, smooth maps
# and pullbacks are oracles in tests/oracles.py.  char-foliation takes
# d lambda on ker lambda as a rank-2 update of d lambda, so the explicit
# Householder kernel bases are an oracle too, and reads its integrability
# residual off skew_rank's pivots, so the principal minors are one.  claim
# reads its commuting frame off the graph's second-order batch, so the
# symbolic frame with its identities is one.
RETIRED = {"form_matrices", "residual_fields", "_model_data", "pullback",
           "SmoothMapExpr", "compose_field", "jacobian_fields",
           "zero_section_map", "wedge", "wedge_power", "exterior_d",
           "_merge_sign", "zero_form", "function_form", "hyperplane_bases",
           "frobenius_residual", "build_Vk", "frame_identities",
           "principal_minor_residual"}


def symbolic_form_uses() -> list[str]:
    """module:line of each definition of or reference to a retired helper
    in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", getattr(node, "id", getattr(
                node, "attr", None)))
            if name in RETIRED:
                found.append(f"{path.stem}:{node.lineno} names {name}")
    return found


def test_one_batch_for_a_one_form_and_its_d():
    assert symbolic_form_uses() == [], \
        "evaluate a 1-form and its d with forms.jet, take top forms with " \
        "forms.top_coeff and build restrictions in closed form; the " \
        "exterior algebra, the symbolic residual equations, 2-form " \
        "matrices and pullbacks are oracles in tests/oracles.py"


def graph_jet_bypasses() -> list[str]:
    """coiso:line of each name jet in coiso.py: a graph's lambda and its d
    come from GraphSubmanifold.lambda_jet, never from forms.jet, so no
    third copy of lambda ^ d lambda can read second derivatives of z."""
    tree = ast.parse((SRC / "coiso.py").read_text())
    return [f"coiso:{node.lineno} names jet" for node in ast.walk(tree)
            if "jet" in (getattr(node, "id", None),
                         getattr(node, "attr", None),
                         *(getattr(a, "name", a)
                           for a in getattr(node, "names", ())))]


def test_graph_checks_read_the_graph_jet():
    assert graph_jet_bypasses() == [], \
        "take a graph's lambda and d lambda from GraphSubmanifold.lambda_jet"


def _private(name) -> bool:
    return isinstance(name, str) and name.startswith("_") \
        and not name.startswith("__")


def _defined_names(node) -> list:
    """The names a node defines: a function's, class's or method's, or the
    name or attribute an assignment stores."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Name, ast.Attribute)) \
            and isinstance(node.ctx, ast.Store):
        return [getattr(node, "id", getattr(node, "attr", None))]
    return []


def _read_names(node) -> list:
    """The names a node reads from another object or module: an
    attribute's, or a from-import's."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def private_reads(src: Path = SRC) -> list[str]:
    """module:line of each read of a private name (one leading underscore)
    that another module of the package defines and the reading module does
    not, such as bd._germs or a from-import of a private helper."""
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(src.glob("*.py"))}
    defined = {module: {name for node in ast.walk(tree)
                        for name in _defined_names(node) if _private(name)}
               for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            for name in _read_names(node):
                owners = sorted(m for m, names in defined.items()
                                if name in names and m != module)
                if _private(name) and name not in defined[module] and owners:
                    found.append(f"{module}:{node.lineno} reads "
                                 f"{owners[0]}.{name}")
    return found


def test_no_module_reads_anothers_private_names():
    assert private_reads() == [], \
        "make the name public, or move the code that reads it to its module"
