"""Layout guards for the package source.

Code that only the tests call belongs in ``tests/oracles.py``, and code that
nothing calls belongs nowhere.  The check is by name: a public module-level
function of ``src/paratile`` must be referenced by some other code in the
package, in ``scripts/`` or in ``perfbench/``, or be exported through
``paratile.__all__``; a public method of one of its public classes must be
referenced there as an attribute (``x.name``), since a bare name is a
variable or a function, never a method call.  And ``intervals.enclose`` is
the one bridge to mpmath: no other module of the package imports it, and
no module reads mpmath's ``iv`` context, so one evaluator remains, and none
imports ``numpy.random``, whose import alone costs about 6 MiB.  No
module builds ``QMatrix.identity(n)`` only to compare a matrix with it, since
``QMatrix.is_identity`` reads that off the rows.  Every module is one of the
layers the benchmark's tracer files its spans under.  Every reader of a
document kind that has a schema validates its document itself.  The CLI maps
failures to exit codes in one table, in ``main``: no command handler
catches an exception itself.  And the package calls no numpy function newer
than the numpy floor that ``pyproject.toml`` declares.  Each defaulted
parameter of a public function or method is passed by some call in the
package, ``scripts/`` or ``perfbench/``, by name, by position or through
``**kwargs``: a parameter no call passes is a constant with a name.
"""

import ast
import math
import pathlib
import re

import paratile
from paratile import serialization

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paratile"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def _references(tree: ast.Module):
    """(name, enclosing top-level function or method, or None) per name use."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                yield child.id, owner
            elif isinstance(child, ast.Attribute):
                yield child.attr, owner
            inner = owner
            if isinstance(child, ast.FunctionDef) and \
                    isinstance(node, (ast.Module, ast.ClassDef)):
                inner = child.name
            yield from walk(child, inner)

    yield from walk(tree, None)


def _attributes(tree: ast.Module):
    """(attribute name, None) per ``x.name`` reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, None


def _used_names(tops=USERS, mentioning=None, refs_of=_references):
    """Names the code under tops references.  With mentioning, only the
    files that reference that name count, and only inside their functions,
    so a class body declaring a field is not a use of it."""
    used = set()
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            refs = list(refs_of(ast.parse(path.read_text())))
            if mentioning is not None:
                if mentioning not in {name for name, _ in refs}:
                    continue
                refs = [(name, owner) for name, owner in refs if owner]
            # a function naming only itself (recursion) is not a use
            used.update(name for name, owner in refs if name != owner)
    return used


def _public(nodes, kind):
    return [node for node in nodes
            if isinstance(node, kind) and not node.name.startswith("_")]


def test_every_public_function_has_a_caller_outside_the_tests():
    used = _used_names()
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in _public(tree.body, ast.FunctionDef):
            if node.name in used or node.name in paratile.__all__:
                continue
            uncalled.append(f"{path.stem}.{node.name}")
    assert not uncalled, f"public functions no code calls: {uncalled}"


def test_every_public_method_has_a_caller_outside_the_tests():
    used = _used_names(refs_of=_attributes)
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in _public(tree.body, ast.ClassDef):
            for node in _public(cls.body, ast.FunctionDef):
                if node.name not in used:
                    uncalled.append(f"{path.stem}.{cls.name}.{node.name}")
    assert not uncalled, f"public methods no code calls: {uncalled}"


def _defaulted_parameters(path: pathlib.Path):
    """(name, parameter, positional index or None) per defaulted parameter
    of a public function or a public method of a public class in path; the
    index counts the arguments a call writes, so a method's self is not
    one of them."""
    tree = ast.parse(path.read_text())
    functions = [(fn, 0) for fn in _public(tree.body, ast.FunctionDef)]
    for cls in _public(tree.body, ast.ClassDef):
        for fn in _public(cls.body, ast.FunctionDef):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            functions.append((fn, 0 if static else 1))
    for fn, skip in functions:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            yield fn.name, positional[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _passed_arguments():
    """Per called name, the (positional count, keyword names) of each call;
    a *args call counts as every position and a **kwargs call as every
    keyword."""
    calls = {}
    for top in USERS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name is None:
                    continue
                count = math.inf if any(isinstance(arg, ast.Starred)
                                        for arg in node.args) \
                    else len(node.args)
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(name, []).append((count, keywords))
    return calls


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a parameter every caller leaves at its default is a constant with a
    # name; the package should say the value where it is used
    calls = _passed_arguments()
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, param, index in _defaulted_parameters(path):
            if not any(param in keywords or None in keywords
                       or (index is not None and count > index)
                       for count, keywords in calls.get(name, ())):
                unpassed.append(f"{path.stem}.{name}({param})")
    assert not unpassed, f"parameters no call passes: {unpassed}"


def test_every_recursion_config_field_is_read_by_the_package():
    # a field that the CLI only passes through (its _supplied keys are
    # strings, not reads) and nothing else reads is a dead knob
    tree = ast.parse((PACKAGE / "construction.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "RecursionConfig")
    fields = [node.target.id for node in cls.body
              if isinstance(node, ast.AnnAssign)]
    read = _used_names((PACKAGE,), mentioning="RecursionConfig")
    unread = [name for name in fields if name not in read]
    assert fields and not unread, f"RecursionConfig fields nothing reads: " \
        f"{unread}"


def test_only_intervals_imports_mpmath():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "mpmath" for name in names):
                importers.append(path.stem)
    assert importers == ["intervals"], importers


def test_no_module_reads_mpmath_iv():
    # enclose evaluates on mpmath.libmp's kernels: iv is no second evaluator
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "mpmath"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "mpmath":
                hit = any(alias.name == "iv" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                hit = node.attr == "iv" and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases
            else:
                continue
            if hit:
                readers.append(f"{path.stem}:{node.lineno}")
    assert readers == [], readers


def test_no_module_imports_numpy_random():
    # numpy imports numpy.random only when it is first read, and that
    # import alone adds 6.2 MiB of resident memory (peak RSS 26.8 -> 33.0
    # MiB after `import numpy`, Python 3.11, numpy 2.4): more than the
    # benchmark's 10% bound on the peak of a tiling-audit run (about 44 MiB)
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hit = any(alias.name.startswith("numpy.random")
                          for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = module.startswith("numpy.random") or module == "numpy" \
                    and any(alias.name == "random" for alias in node.names)
            elif isinstance(node, ast.Attribute):
                hit = node.attr == "random" and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in aliases
            else:
                continue
            if hit:
                readers.append(f"{path.stem}:{node.lineno}")
    assert readers == [], readers


def _cache_stores(tree: ast.Module):
    """Line numbers that assign, delete or mutate through ``<x>._cache``."""
    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                is_cache(node.func.value) and node.func.attr in (
                    "setdefault", "update", "pop", "popitem", "clear"):
            yield node.lineno
        for target in targets:
            if is_cache(target) or (isinstance(target, ast.Subscript)
                                    and is_cache(target.value)):
                yield node.lineno


def test_only_polytopes_stores_into_a_body_cache():
    # a body's cached vertices, chart table and measures come from one
    # module's rules; a value planted from outside would bypass them
    stores = [f"{path.stem}:{line}" for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "polytopes"
              for line in _cache_stores(ast.parse(path.read_text()))]
    assert not stores, f"stores into _cache outside polytopes: {stores}"


def _function_names(path: pathlib.Path, name: str):
    """The names the module-level function ``name`` of path references."""
    tree = ast.parse(path.read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name)
    return {ref for ref, _ in _references(fn)}


def test_rank_completion_eliminates_over_the_integers():
    # the independent rows and pivot columns come from integer elimination
    # on the numerators; no Fraction is built to find them
    names = _function_names(PACKAGE / "linalg.py", "complete_to_full_rank")
    assert "pivot_columns" in names
    assert not names & {"rref", "entries", "Fraction"}, names


def test_enumeration_recurses_on_plain_integers():
    # the levels are scaled to integers once per call; the recursion takes
    # one integer square root per range and builds no Fraction
    tree = ast.parse((PACKAGE / "lattices.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "enumerate_short_vectors")
    inner = [node for node in ast.walk(fn)
             if isinstance(node, ast.FunctionDef) and node is not fn]
    assert inner, "enumerate_short_vectors has no inner recursion"
    names = {ref for node in inner for ref, _ in _references(node)}
    assert "isqrt" in names
    assert not names & {"Fraction", "ldl_split"}, names


def test_rref_is_a_test_reference_only():
    # the package inverts and ranks fraction-free; the Fraction rref is the
    # reference the tests check them against
    users = sorted(path.stem for path in PACKAGE.glob("*.py")
                   if "rref" in {name for name, _ in
                                 _references(ast.parse(path.read_text()))})
    assert not users, users
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    assert "rref" in {node.name for node in oracles.body
                      if isinstance(node, ast.FunctionDef)}


def test_the_step_reads_lambda_1_and_ranks_off_its_own_computations():
    # lambda_1 of the kernel is 4 inradius^2 of its cell and B's rank is
    # the image's Hermite rank, so the step enumerates and eliminates no
    # second time; and voronoi_cell takes its lattice as given
    construction = {name for name, _ in _references(
        ast.parse((PACKAGE / "construction.py").read_text()))}
    assert not construction & {"shortest_vector_sq",
                               "enumerate_short_vectors",
                               "rank_over_rationals"}, construction
    tree = ast.parse((PACKAGE / "polytopes.py").read_text())
    fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "voronoi_cell")
    built = [node.lineno for node in ast.walk(fn)
             if isinstance(node, ast.Call) and "Lattice" in
             {ref for ref, _ in _references(ast.Expression(node.func))}]
    assert not built, f"voronoi_cell builds a Lattice at lines {built}"


def _identity_comparisons(tree: ast.Module):
    """Line numbers of ``==`` or ``!=`` tests against a
    ``QMatrix.identity(...)`` call."""
    def builds_identity(node):
        return isinstance(node, ast.Call) and \
            isinstance(node.func, ast.Attribute) and \
            node.func.attr == "identity" and \
            isinstance(node.func.value, ast.Name) and \
            node.func.value.id == "QMatrix"

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and \
                any(map(builds_identity, [node.left, *node.comparators])):
            yield node.lineno


def test_no_module_builds_an_identity_to_compare_with_it():
    # QMatrix.is_identity reads I_n off the rows; building I_n only to
    # compare a matrix with it costs n^2 ints each time
    found = [f"{path.stem}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in _identity_comparisons(ast.parse(path.read_text()))]
    assert not found, f"comparisons with a built identity: {found}"


def test_every_module_is_a_traced_layer():
    # the benchmark's tracer files each span under one of its LAYERS and
    # fails on a name outside them, so a new module needs a layer there
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and any(
                      isinstance(t, ast.Name) and t.id == "LAYERS"
                      for t in node.targets))
    modules = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if path.stem != "__init__")
    assert modules == sorted(layers), (modules, layers)


def test_every_reader_of_a_schema_kind_validates_its_document():
    # input is checked once, where it enters: a reader that trusted its
    # caller to validate would crash on a malformed nested document
    tree = ast.parse((PACKAGE / "serialization.py").read_text())
    readers = {node.name[:-len("_from_json")]: node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.endswith("_from_json")}
    readers = {kind: fn for kind, fn in readers.items()
               if kind in serialization._SCHEMA_KINDS}
    assert readers, "no reader of a schema kind found"
    unchecked = [kind for kind, fn in sorted(readers.items())
                 if not any(isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == "validate_document"
                            and node.args
                            and isinstance(node.args[0], ast.Constant)
                            and node.args[0].value == kind
                            for node in ast.walk(fn))]
    assert not unchecked, f"readers that do not validate: {unchecked}"


def test_no_command_handler_catches_an_exception():
    # every failure reaches main's one table of exit codes and messages
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    catching = [node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")
                and any(isinstance(inner, ast.Try)
                        for inner in ast.walk(node))]
    assert not catching, f"handlers with a try: {catching}"


def test_no_numpy_function_is_newer_than_the_declared_floor():
    # np.bitwise_count arrived in numpy 2.0; below that floor verify counts
    # bits with a byte table
    found = re.search(r'"numpy>=([0-9]+)\.([0-9]+)',
                      (ROOT / "pyproject.toml").read_text())
    assert found, "pyproject.toml declares no numpy floor"
    floor = (int(found[1]), int(found[2]))
    users = sorted(path.stem for path in PACKAGE.glob("*.py")
                   if any(name == "bitwise_count" for name, _ in
                          _references(ast.parse(path.read_text()))))
    assert floor >= (2, 0) or not users, \
        f"bitwise_count needs numpy 2.0, the floor is {floor}: {users}"
