"""Public-surface guard: every public module-level function and class of
`bmhull`, and every public method and property of its public classes, is
used by the package itself, or is named below.

A use is a name in code, resolved through the module's own imports: a bare
name in the defining module outside its own definition, a name imported
with `from .module import name`, or `module.name` after `from . import
module`.  Comments, docstrings and the re-exports of `bmhull/__init__.py`
are not uses.  A method or property is used when some `.name` attribute
access in the package's code spells its name, or when it is named below.
Where several public classes define a member of that name, an access counts
only for the receiver's class, which must resolve from the enclosing
functions: a parameter annotation `x: C` or an assignment `x = C(...)`.
This keeps wrappers that only tests call from growing back.

The same holds for the options of the estimators: every keyword parameter
with a default on a public `mc` function is passed, by keyword or by
position, by some call in the package's code, or is named below with its
reason.  An option only tests set is a second code path that nothing the
package runs goes through.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bmhull"

# test oracles: independent implementations the tests and checks compare with
ORACLES = ("check_N", "euler_characteristic_3d", "final_assembly")
# the estimators the package offers its callers without calling them itself,
# and lemma6_bound, the analytic bound that tests compare bridge estimates with
ENTRY_POINTS = ("stay_prob_wedge", "bridge_stay_prob", "discordant_prob", "lemma6_bound")
# (class, member) pairs the package offers its callers without calling them
# itself: the serialised estimate that the layout digests and the benchmark's
# checks read
MEMBER_ENTRY_POINTS = (("Estimate", "to_json"),)
# (class, member) oracles: the brute-force containment that tests compare
# facet-level decisions with
MEMBER_ORACLES = (("Polytope", "contains"),)
# (function, parameter) options of public mc functions that no call in the
# package passes, each with its reason
OPTIONS_NOT_PASSED = {
    ("conditional_H_prob", "include_R"):
        "the benchmark's conditional_H workload passes it; it accepts only its default",
    ("conditional_H_prob", "n_dim"):
        "the dimension n of Prop 6; verify runs only the planar case",
}


def _modules():
    return {f.stem: ast.parse(f.read_text(encoding="utf-8"))
            for f in sorted(SRC.glob("*.py")) if f.name != "__init__.py"}


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _registered(node):
    """A function that a click `.command(...)` decorator registers."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _uses(name, tree, defs):
    """(module, name) pairs that the names in tree's code refer to; defs
    maps each module to the names it defines at top level."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
    owner = {}  # node id -> name of the top-level definition enclosing it
    for top in _public_defs(tree):
        for sub in ast.walk(top):
            owner[id(sub)] = top.name
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id in imported:
                found.add(imported[node.id])
            elif node.id in defs[name] and owner.get(id(node)) != node.id:
                found.add((name, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return found


def test_public_surface_is_used_by_the_package():
    trees = _modules()
    defs = {name: {n.name for n in tree.body
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            for name, tree in trees.items()}
    used = set().union(*(_uses(name, tree, defs) for name, tree in trees.items()))
    public = [(name, node) for name, tree in trees.items() for node in _public_defs(tree)]
    unused = sorted(f"{name}.{node.name}" for name, node in public
                    if (name, node.name) not in used and not _registered(node)
                    and node.name not in ORACLES + ENTRY_POINTS)
    assert unused == [], f"public names no module of bmhull uses: {unused}"
    # the lists name only what still exists, so they cannot outlive it
    assert set(ORACLES + ENTRY_POINTS) <= {node.name for _, node in public}


def _public_members(tree):
    """(class, name) of each public method and property of tree's public
    classes."""
    return [(cls.name, node.name) for cls in _public_defs(tree)
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _class_name(node):
    """The class that an annotation or a called name spells: `C` or
    `module.C`; None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of a function's own code, not of the functions and classes
    nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(fn):
    """Names whose class fn's own code fixes: parameters annotated `C` and
    names assigned `C(...)`."""
    params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    bound = {a.arg: _class_name(a.annotation) for a in params if a.annotation is not None}
    for node in _own_nodes(fn):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            bound.update((t.id, _class_name(node.value.func)) for t in node.targets
                         if isinstance(t, ast.Name))
    return bound


def _receiver_uses(tree, shared):
    """(class, member) of each `x.member` access in tree whose member the
    classes shared[member] all define, with x's class bound in the enclosing
    functions (inner bindings win); also the accesses whose receiver does
    not resolve to one of those classes."""
    used, unresolved = set(), []

    def visit(node, bound):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCTIONS):
                visit(child, {**bound, **_bindings(child)})
                continue
            if isinstance(child, ast.Attribute) and child.attr in shared:
                owner = bound.get(child.value.id) if isinstance(child.value, ast.Name) else None
                if owner in shared[child.attr]:
                    used.add((owner, child.attr))
                else:
                    unresolved.append(f"{ast.unparse(child)} (line {child.lineno})")
            visit(child, bound)

    visit(tree, {})
    return used, unresolved


def test_public_members_are_used_by_the_package():
    trees = _modules()
    members = [(name, cls, member) for name, tree in trees.items()
               for cls, member in _public_members(tree)]
    owners = {}
    for _, cls, member in members:
        owners.setdefault(member, set()).add(cls)
    shared = {member: classes for member, classes in owners.items() if len(classes) > 1}
    attrs = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    resolved, unresolved = set(), []
    for name, tree in trees.items():
        used, missed = _receiver_uses(tree, shared)
        resolved |= used
        unresolved += [f"{name}: {m}" for m in missed]
    assert unresolved == [], f"receivers of shared member names that do not resolve: {unresolved}"
    listed = MEMBER_ENTRY_POINTS + MEMBER_ORACLES
    unused = sorted(f"{name}.{cls}.{member}" for name, cls, member in members
                    if ((cls, member) not in resolved if member in shared
                        else member not in attrs) and (cls, member) not in listed)
    assert unused == [], f"public methods no module of bmhull uses: {unused}"
    # the lists name only what still exists, so they cannot outlive it
    assert set(listed) <= {(cls, member) for _, cls, member in members}


def _calls_of(trees, func):
    """The ast.Call nodes in the package's code that call func, bare or as
    an attribute, e.g. mc.func(...)."""
    return [node for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and func == (node.func.id if isinstance(node.func, ast.Name)
                         else getattr(node.func, "attr", None))]


def test_mc_options_are_passed_by_the_package():
    trees = _modules()
    options = []
    for fn in _public_defs(trees["mc"]):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        defaults = params[len(params) - len(fn.args.defaults):]
        defaults += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if d is not None]
        passed = set()
        for call in _calls_of(trees, fn.name):
            passed.update(params[:len(call.args)])
            passed.update(k.arg for k in call.keywords)
        options += [(fn.name, name, name in passed) for name in defaults]
    unpassed = sorted(f"mc.{f}({p}=...)" for f, p, ok in options
                      if not ok and (f, p) not in OPTIONS_NOT_PASSED)
    assert unpassed == [], f"options of public mc functions no call in bmhull passes: {unpassed}"
    # the list names only options that exist and that no call passes
    assert set(OPTIONS_NOT_PASSED) <= {(f, p) for f, p, ok in options if not ok}
