"""The package's import layering, read from the source with `ast`.

`nn` is the numpy layer under everything. `encoders` turns token and
occupancy arrays into embeddings and knows nothing of where they come from
or what is done with them, so it imports no geometry, corpus, training or
retrieval code.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rodfind"


def imported_modules(name):
    """Absolute names of every module that `rodfind.<name>` imports, at any
    depth of its code; `from . import x` counts as importing `rodfind.x`."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "rodfind" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            if node.module is None:
                found.update(f"{module}.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return found


def test_nn_imports_numpy_only():
    allowed = {"numpy", "__future__"}
    assert {m for m in imported_modules("nn") if m.split(".")[0] not in allowed} == set()


@pytest.mark.parametrize("layer", ["geometry", "dataset", "training", "retrieval"])
def test_encoders_do_not_import(layer):
    banned = f"rodfind.{layer}"
    assert {m for m in imported_modules("encoders")
            if m == banned or m.startswith(banned + ".")} == set()
