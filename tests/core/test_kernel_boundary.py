"""The shared kernels stay neutral, and mining keeps no heap of its own.

:mod:`repro.kernels` holds the one filter-and-refine walk and the one
canonical top-k that mining and serving share, so it imports nothing
from the layers that use it. No kNN module imports :mod:`heapq`: a
private best-k heap would bring back a tie rule of its own.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _imported(path: Path) -> list[tuple[int, str]]:
    """``(line, module)`` of every import in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            found.append((node.lineno, base))
            found += [
                (node.lineno, f"{base}.{alias.name}") for alias in node.names
            ]
    return found


def test_kernels_import_no_layer_that_uses_them():
    layers = ("serving", "mining", "faults", "repair")
    hits = [
        f"kernels.py:{line}: {name}"
        for line, name in _imported(SRC / "kernels.py")
        if name.split(".")[:2] in (["repro", layer] for layer in layers)
    ]
    assert hits == []


def test_no_knn_module_imports_heapq():
    hits = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted((SRC / "mining" / "knn").rglob("*.py"))
        for line, name in _imported(path)
        if name == "heapq" or name.startswith("heapq.")
    ]
    assert hits == []
