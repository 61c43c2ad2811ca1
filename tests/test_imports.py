"""Every module under src/seqtag/ uses every name it imports, and the
package loads nothing beyond the standard library but numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqtag"


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_name():
    assert unused_imports("from dataclasses import dataclass, field\n@dataclass\nclass A:\n    x: int = 0\n") == [
        (1, "field")
    ]
    assert unused_imports("import os.path\nimport numpy as np\nprint(os.sep, np.pi)\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# run in a fresh interpreter: what the taggers' import loads, by top-level name
_LOADED = """
import json, sys
before = set(sys.modules)
import seqtag.tagger, seqtag.tnt
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_taggers_load_only_numpy_beyond_the_standard_library():
    # the start-up time of every run is mostly imports; one stray package adds to it
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _LOADED], env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "seqtag" in loaded and "numpy" in loaded
    assert [name for name in loaded if name not in sys.stdlib_module_names | {"numpy", "seqtag"}] == []
