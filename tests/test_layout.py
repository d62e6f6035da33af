"""`src/tensec` holds what the four commands run.

A static walk over the library's source: starting from `cli.main`, a
reached function or class reaches every library definition whose name it
loads, as a bare name or as an attribute.  A reached class reaches its
bases, decorators and non-method body, and its dunder methods, which Python
calls implicitly; the statements at the top of each module run at import
and are reached too.  Every function, class and method under `src/tensec`
must be reached.  Code that only tests call lives in the tests; the
paper's lemma code that the acceptance criteria check is in
`tests/lemmas.py`.

The walk matches names, not types: a method is reached when any reached
code loads an attribute of its name, so a method that only tests call but
that shares its name with a live method is out of its reach.

Every name a library module imports is loaded in that module.

Every parameter default is an option the library uses both ways: matched
by name as above, one library call leaves the parameter out and another
sets it.  A default that no call sets, or that every call sets, only
serves the tests, which pass the value themselves.

Rationals exist only at the boundary: the name `Fraction` is loaded only
in the functions of `FRACTION_BOUNDARY`, and every other function computes
in ints.
"""

import ast
from pathlib import Path

from test_trace_hooks import load_tracing

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "tensec"
LEMMAS = ROOT / "tests" / "lemmas.py"

#: Library definitions reached from outside `cli.main`, each for its reason.
EXTRA_ROOTS = (
    # ROADMAP item 3 wires the sufficiency direction of the theorem into
    # `check`; until then only the tests build this force-load.
    "quantization.construct_forceload",
    # The README's example writes a fixture to a framework file with it.
    "framework.framework_to_json",
)

#: Definitions that left the library for `tests/lemmas.py`, where they are
#: the reference: the per-cycle test of a framed cycle's edge lines, which
#: the library takes from the framework's general position.
LEMMAS_ONLY = ("crossings", "distinct_crossings", "pairwise_meets")

#: The library functions that name Fraction: only the samplers' seeded
#: draw, which makes rationals (the Pascal placement reads the numerators
#: and denominators of these draws and builds its conic points as integer
#: triples).  An input literal is read as two ints, and a triple of them is
#: cleared to ints with one lcm; a Fraction triple given to a point or line
#: is cleared once, into a canonical triple (`numeric.clear_denominators`).
FRACTION_BOUNDARY = ("sampling.random_fraction",)

#: Defaults that library calls use one way only, each for its reason.
ONE_SIDED_DEFAULTS = (
    # The console script calls `main()`; the benchmark and the tests pass
    # their own argv.
    "main(argv)",
)


def _definitions(path: Path):
    """Top-level functions and classes of a source file, and the methods of
    its classes, as {qualified name: node}, plus its other top-level
    statements."""
    module = ast.parse(path.read_text(encoding="utf-8"))
    defs, statements = {}, []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{node.name}.{item.name}"] = item
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            statements.append(node)
    return defs, statements


def _loaded_names(nodes):
    """Names and attribute names that the nodes load."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                names.add(sub.attr)
    return names


def _class_parts(node: ast.ClassDef):
    """What a class runs when it is built: bases, keywords, decorators and
    the statements of its body that are not methods."""
    return [*node.bases, *node.keywords, *node.decorator_list,
            *(item for item in node.body if not isinstance(item, ast.FunctionDef))]


def library():
    """{"module.name" or "module.Class.method": node} over `src/tensec`, and
    the top-level statements of every module."""
    defs, statements = {}, []
    for path in sorted(LIBRARY.glob("*.py")):
        found, top = _definitions(path)
        defs.update({f"{path.stem}.{name}": node for name, node in found.items()})
        statements += top
    return defs, statements


def traced_roots():
    """The functions `perfbench/tracing.py` wraps or counts, which must
    exist while the benchmark's tracer refers to them."""
    tracing = load_tracing()
    return [f"{short}.{attr}" for short, attr, _hook in tracing.SPANS] + \
        [f"{short}.{attr}" for short, attr in tracing.COUNTERS]


def unreached(traced=True):
    """The library definitions no walk from the roots reaches, sorted; with
    `traced` false, the benchmark tracer's functions are no roots."""
    defs, statements = library()
    by_name = {}
    for qualified in defs:
        by_name.setdefault(qualified.rsplit(".", 1)[-1], []).append(qualified)

    def named(nodes):
        return [q for name in _loaded_names(nodes) for q in by_name.get(name, ())]

    reached = set()
    pending = ["cli.main", *(traced_roots() if traced else ()), *EXTRA_ROOTS,
               *named(statements)]
    while pending:
        qualified = pending.pop()
        if qualified in reached:
            continue
        reached.add(qualified)
        node = defs[qualified]
        if isinstance(node, ast.ClassDef):
            pending += named(_class_parts(node))
            pending += [f"{qualified}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name.startswith("__") and item.name.endswith("__")]
        else:
            pending += named([node])
    return sorted(set(defs) - reached)


def test_every_library_definition_runs_in_a_command():
    assert unreached() == []


def test_only_these_definitions_live_for_the_tracer():
    # no command runs them; the benchmark's tracer wraps or counts them
    # (ROADMAP item 2 retires those pins and empties this list)
    assert unreached(traced=False) == [
        "conditions.evaluate",
        "resolution.rewire",
        "resolution.scheme_hf_surgery",
    ]


def test_lemmas_define_no_library_name():
    lemmas, _ = _definitions(LEMMAS)
    defs, _ = library()
    library_names = {qualified.rsplit(".", 1)[-1] for qualified in defs}
    assert sorted(set(lemmas) & library_names) == []


def test_moved_definitions_stay_in_the_lemmas():
    lemmas, _ = _definitions(LEMMAS)
    defs, _ = library()
    assert set(LEMMAS_ONLY) <= set(lemmas)
    assert sorted(q for q in defs if q.rsplit(".", 1)[-1] in LEMMAS_ONLY) == []


def test_library_imports_are_used():
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        loaded = {node.id for node in ast.walk(module)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - loaded)]
    assert unused == []


def _callables(module: ast.Module):
    """(name it is called by, bound arguments, node) of every function
    defined in a module, nested ones included: a class's `__init__` is
    called by the class name, and a method gets its instance or class
    bound unless it is a staticmethod."""
    methods = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    methods[item] = (name, 0 if static else 1)
    for node in ast.walk(module):
        if isinstance(node, ast.FunctionDef):
            name, bound = methods.get(node, (node.name, 0))
            yield name, bound, node


def _defaults(fn: ast.FunctionDef):
    """(position, name) of each parameter with a default; the position of
    a keyword-only parameter is None."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    first = len(positional) - len(a.defaults)
    yield from ((i, p.arg) for i, p in enumerate(positional) if i >= first)
    yield from ((None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None)


def one_sided_defaults():
    """`name(parameter)` of each library default that no library call
    leaves out or no library call sets, sorted.  A call that spreads `*` or
    `**` arguments counts as setting every parameter past its plain ones."""
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(LIBRARY.glob("*.py"))]
    calls = {}
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                plain = next((i for i, arg in enumerate(node.args)
                              if isinstance(arg, ast.Starred)), len(node.args))
                spread = plain < len(node.args) or any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (plain, spread, {k.arg for k in node.keywords}))
    found = []
    for module in modules:
        for name, bound, fn in _callables(module):
            for position, param in _defaults(fn):
                ways = {spread or param in keywords
                        or (position is not None and position < bound + plain)
                        for plain, spread, keywords in calls.get(name, ())}
                if ways != {True, False}:
                    found.append(f"{name}({param})")
    return sorted(found)


def test_every_default_is_left_out_and_set():
    assert one_sided_defaults() == sorted(ONE_SIDED_DEFAULTS)


def test_fraction_stays_at_the_boundary():
    defs, statements = library()
    loads = [qualified for qualified, node in defs.items()
             if "Fraction" in _loaded_names(
                 _class_parts(node) if isinstance(node, ast.ClassDef) else [node])]
    if "Fraction" in _loaded_names(statements):
        loads.append("module level")
    assert sorted(set(loads) - set(FRACTION_BOUNDARY)) == []
