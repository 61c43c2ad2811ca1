"""Every function, method and class under src/seqtag/ is named somewhere in
src/, perfbench/ or tools/: code that only its own tests call fails here."""

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


def definitions(tree, prefix):
    """(qualified name, name) of every function, method and class in a
    module's tree, at any depth; dunder methods are called by Python."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield qualified, node.name
            yield from definitions(node, qualified)


def named(tree):
    """Every identifier a tree reads: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def uncalled(modules, callers):
    """Qualified names of the definitions in {module: source} that no source
    in callers names."""
    used = {name for source in callers for name in named(ast.parse(source))}
    return sorted(
        qualified
        for module, source in modules.items()
        for qualified, name in definitions(ast.parse(source), module)
        if name not in used
    )


def test_finds_an_uncalled_method():
    source = "class A:\n    def __init__(self):\n        pass\n\n    def kept(self):\n        pass\n\n" \
             "    def dead(self):\n        pass\n\n\ndef helper():\n    return A().kept()\n"
    assert uncalled({"m": source}, [source, "from m import helper\n"]) == ["m.A.dead"]


def test_every_definition_has_a_caller():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))]
    found = set(uncalled(modules, callers))
    assert found - ALLOWED == set(), "named nowhere in src/, perfbench/ or tools/"
    assert ALLOWED - found == set(), "has a caller now: drop it from ALLOWED"
