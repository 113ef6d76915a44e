import ast
import importlib
import pkgutil
from pathlib import Path

import seqtag


def test_every_exported_name_exists():
    modules = ["seqtag"] + [info.name for info in
                            pkgutil.walk_packages(seqtag.__path__, prefix="seqtag.")]
    assert "seqtag.nn.layers" in modules
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _unused_imports(path):
    """Names ``path`` imports but never reads; a name in its ``__all__``
    counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "seqtag").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(files) > 20
    unused = [f"{path.relative_to(root)}: {name}"
              for path in files for name in _unused_imports(path)]
    assert unused == []
