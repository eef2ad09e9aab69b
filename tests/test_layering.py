"""The package's import layering, read from the source with `ast`.

`nn` is the numpy layer under everything. `encoders` turns token and
occupancy arrays into embeddings and knows nothing of where they come from
or what is done with them, so it imports no geometry, corpus, training or
retrieval code. `geometry` builds and voxelizes solids from specs and meshes
alone, so none of its files imports corpus, encoder, training, retrieval,
design-of-experiments or command-line code.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rodfind"


def imported_modules(name):
    """Absolute names of every module that `rodfind.<name>` imports, at any
    depth of its code and, for a subpackage, in every file of it; `from .
    import x` counts as importing `x` of the importing file's package."""
    path = PACKAGE / name
    package = ["rodfind", name] if path.is_dir() else ["rodfind"]
    files = sorted(path.glob("*.py")) if path.is_dir() else [path.with_suffix(".py")]
    found = set()
    for file in files:
        for node in ast.walk(ast.parse(file.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = package[:len(package) + 1 - node.level] if node.level else []
                module = ".".join(base + [node.module] if node.module else base)
                if node.module is None:
                    found.update(f"{module}.{alias.name}" for alias in node.names)
                else:
                    found.add(module)
    return found


def imports_of(name, layer):
    """The modules of `rodfind.<layer>` that `rodfind.<name>` imports."""
    banned = f"rodfind.{layer}"
    return {m for m in imported_modules(name) if m == banned or m.startswith(banned + ".")}


def test_nn_imports_numpy_only():
    allowed = {"numpy", "__future__"}
    assert {m for m in imported_modules("nn") if m.split(".")[0] not in allowed} == set()


@pytest.mark.parametrize("layer", ["geometry", "dataset", "training", "retrieval"])
def test_encoders_do_not_import(layer):
    assert imports_of("encoders", layer) == set()


@pytest.mark.parametrize("layer", ["dataset", "encoders", "training", "retrieval",
                                   "doe", "cli"])
def test_geometry_does_not_import(layer):
    assert imports_of("geometry", layer) == set()
