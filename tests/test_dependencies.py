"""The third-party packages simcal imports are exactly the ones
pyproject.toml declares as its run-time dependencies."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Distribution name -> top-level import name, where the two differ.
IMPORT_NAMES = {"pyyaml": "yaml"}


def declared_dependencies() -> set:
    """Import names of the ``[project]`` table's ``dependencies``.

    tomllib only exists from Python 3.11, so the array is read as a
    Python literal, which a TOML array of basic strings also is."""
    text = (ROOT / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    array = re.search(r"^dependencies\s*=\s*(\[.*?^\])", project, re.M | re.S).group(1)
    names = set()
    for requirement in ast.literal_eval(array):
        dist = re.match(r"[A-Za-z0-9._-]+", requirement).group(0).lower()
        names.add(IMPORT_NAMES.get(dist, dist))
    return names


def third_party_imports() -> set:
    """Top-level names of every absolute import in src/simcal/*.py, the
    ones inside functions included, less the standard library's."""
    names = set()
    for path in (ROOT / "src" / "simcal").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"simcal"}


def test_imports_equal_declared_dependencies():
    assert third_party_imports() == declared_dependencies() == {"numpy", "yaml"}
