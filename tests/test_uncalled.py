"""Every function, method and class under src/seqtag/ is called somewhere in
src/, perfbench/ or tools/: code that only its own tests call fails here.

Calls are matched by name, with scope in mind.  A method counts as called
only through an attribute (`x.name`).  A module-level function or class
counts through an attribute, an import, or a name that no enclosing
function binds as a parameter or local: a parameter `grad` calls neither a
method nor a function of that name.  A nested function counts through any
name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seqtag"
CALLERS = ("src", "perfbench", "tools")

# Uncalled definitions, each waiting for the ROADMAP item that gives it a
# caller: item 3 (run records) for training_frequency, item 5 (the paper's
# analyses) for the corpus helpers.  Entries only ever leave this set.
ALLOWED = {
    "tagger.TaggerModel.training_frequency",
    "tnt.TrigramModel.training_frequency",
    "corpus.subsample",
    "corpus.corrupt_labels",
    "corpus.stats",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def definitions(tree, prefix):
    """(qualified name, name, scope) of every function, method and class in
    a module's tree, at any depth; scope is "module", "method" or "nested".
    Dunder methods are called by Python."""
    scope = "module" if isinstance(tree, ast.Module) else "method" if isinstance(tree, ast.ClassDef) else "nested"
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qualified = f"{prefix}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualified, node.name, scope
            yield from definitions(node, qualified)


def binds(fn):
    """The names a function binds in its own scope: its parameters, what
    it assigns, imports or defines, less what it declares global."""
    args = fn.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, _DEFS):
            bound.add(node.name)
            continue  # its body is a scope of its own
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def named(tree):
    """(attributes, free, names) of a tree: the attribute names it reads;
    the names it imports or uses where no enclosing function binds them;
    every name it uses."""
    attributes, free, names = set(), set(), set()

    def visit(node, bound):
        if isinstance(node, _FUNCTIONS):
            bound = bound | binds(node)
        if isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
            if node.id not in bound:
                free.add(node.id)
        elif isinstance(node, ast.alias):
            free.add(node.name.split(".")[-1])
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return attributes, free, names


def uncalled(modules, callers):
    """Qualified names of the definitions in {module: source} that no source
    in callers reaches."""
    attributes, free, names = set(), set(), set()
    for source in callers:
        a, f, n = named(ast.parse(source))
        attributes |= a
        free |= f
        names |= n
    reached = {"method": attributes, "module": attributes | free, "nested": names}
    return sorted(
        qualified
        for module, source in modules.items()
        for qualified, name, scope in definitions(ast.parse(source), module)
        if name not in reached[scope]
    )


def test_finds_an_uncalled_method():
    source = "class A:\n    def __init__(self):\n        pass\n\n    def kept(self):\n        pass\n\n" \
             "    def dead(self):\n        pass\n\n\ndef helper():\n    return A().kept()\n"
    assert uncalled({"m": source}, [source, "from m import helper\n"]) == ["m.A.dead"]


def test_a_local_of_the_same_name_calls_nothing():
    # grad is only a parameter and a local; helper only a parameter's name
    source = "class A:\n    def grad(self):\n        pass\n\n\ndef helper():\n    pass\n\n\n" \
             "def step(grad, helper):\n    grad = grad * 2\n    return helper(grad)\n"
    callers = [source, "from m import step, A\nstep(1, lambda g: g)\n"]
    assert uncalled({"m": source}, callers) == ["m.A.grad", "m.helper"]
    assert uncalled({"m": source}, callers + ["A().grad()\nhelper()\n"]) == []


def test_every_definition_has_a_caller():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))]
    found = set(uncalled(modules, callers))
    assert found - ALLOWED == set(), "called nowhere in src/, perfbench/ or tools/"
    assert ALLOWED - found == set(), "has a caller now: drop it from ALLOWED"
