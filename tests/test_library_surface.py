"""The library exports only what it uses itself or documents.

A module-level function or class in `src/icelab` with a public name must
be referred to somewhere in `src/icelab` (an `ast.Name` or `ast.Attribute`)
or be named in README.md; a helper that only tests call lives beside them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "icelab"


def unreferenced_public_names(src: Path, readme: str) -> list:
    """module:name of each public top-level def or class that nothing in
    `src` refers to and `readme` does not name."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used
            and not re.search(rf"\b{node.name}\b", readme)]


def test_every_public_name_is_used_by_the_library_or_documented():
    assert unreferenced_public_names(SRC, (ROOT / "README.md").read_text()) == []
