"""Source hygiene: every name a module imports is used in that module.

Package ``__init__.py`` files are exempt, because their imports are the
package's re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cayleycert"


def unused_imports(path: Path) -> list:
    """``file:line name`` for each imported name the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # a name read only in a string annotation ("GroupSpec") is used
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert files
    found = [hit for p in files for hit in unused_imports(p)]
    assert not found, "unused imports: " + ", ".join(found)


def test_checker_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from fractions import Fraction\nimport os\nimport re\n\n"
                   "def f(x: \"Fraction\") -> int:\n    return re.sub\n")
    assert unused_imports(mod) == ["mod.py:2 os"]
