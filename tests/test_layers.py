"""The package's modules form layers: each imports only the modules below it.
The formula in ``dimension`` and the sampler in ``sampling`` are independent
children of ``thermo``; ``cli`` and the package's ``__init__`` sit on top."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "kaenmaki"

MAY_IMPORT = {
    "errors": set(),
    "ifs": {"errors"},
    "coding": {"ifs", "errors"},
    "thermo": {"coding", "ifs", "errors"},
    "sampling": {"thermo", "coding", "ifs", "errors"},
    "dimension": {"thermo", "ifs", "errors"},
}
TOP = {"cli", "__init__"}


def package_imports(path):
    """Names of the package modules that ``path`` imports, relative imports only."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(MAY_IMPORT) | TOP


@pytest.mark.parametrize("module", sorted(MAY_IMPORT))
def test_module_imports_only_lower_layers(module):
    extra = package_imports(SRC / f"{module}.py") - MAY_IMPORT[module]
    assert not extra, f"{module} imports {sorted(extra)}"
