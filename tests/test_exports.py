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


def _module_all(tree):
    """The names a module's ``__all__`` lists (empty without one)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path):
    """Names ``path`` imports but never reads; a name in its ``__all__``
    counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = _module_all(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    files = sorted((root / "src" / "seqtag").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert len(files) > 20
    unused = [f"{path.relative_to(root)}: {name}"
              for path in files for name in _unused_imports(path)]
    assert unused == []


# Public entry points only the [PRIMARY] oracles call, with the reason each
# cannot be reached through a function the package or perfbench reads.
ORACLE_ENTRY_POINTS = {
    # the Ensemble oracle votes label pools holding a lone I-PER, which
    # ensemble_corpus would BIO-repair to B-PER
    "majority_vote",
}


def test_no_unreferenced_definitions():
    # every module-level def and class of src/seqtag is read somewhere in
    # the package or in perfbench/: a name in __all__ that only tests read
    # is not used, unless it is an oracle's entry point
    root = Path(__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "seqtag").rglob("*.py"))}
    assert len(trees) > 10
    readers = list(trees.values()) + [ast.parse(path.read_text(encoding="utf-8"))
                                      for path in sorted((root / "perfbench").glob("*.py"))]
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = {(path, node.name) for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unreferenced = [f"{path.relative_to(root)}: {name}" for path, name in sorted(defined)
                    if name not in read | ORACLE_ENTRY_POINTS]
    assert unreferenced == []
    # the allow-list holds only defined names that nothing else reads
    assert ORACLE_ENTRY_POINTS <= {name for _, name in defined} - read


def _calls(tree, names):
    """(class, function) around each call of a module to a function or
    method named in ``names``, None where there is none."""
    calls = []

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                    child.func.attr if isinstance(child.func, ast.Attribute)
                    else getattr(child.func, "id", None)) in names:
                calls.append((cls, func))
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, func)
            elif isinstance(child, ast.FunctionDef):
                visit(child, cls, child.name)
            else:
                visit(child, cls, func)

    visit(tree, None, None)
    return calls


def test_only_attention_builds_a_padded_grid():
    # every kernel steps over RowLayout's packed rows; only the attention
    # scores need a zero-padded (B, n) grid
    root = Path(__file__).resolve().parents[1]
    calls = [(path.relative_to(root), cls, func)
             for path in sorted((root / "src" / "seqtag").rglob("*.py"))
             for cls, func in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                     ("scatter", "gather"))]
    assert any(cls == "MultiHeadAttention" for _, cls, _ in calls)
    assert [call for call in calls if call[1] != "MultiHeadAttention"] == []


def test_only_the_allocator_draws_parameters():
    # every parameter is drawn by ParamStore.draw from a spec; a loaded
    # model is filled from its file and draws nothing
    root = Path(__file__).resolve().parents[1]
    calls = [(str(path.relative_to(root)), cls, func)
             for path in sorted((root / "src" / "seqtag").rglob("*.py"))
             for cls, func in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                     ("uniform_init",))]
    assert calls == [("src/seqtag/nn/params.py", "ParamStore", "draw")]


def test_only_the_checking_modules_build_unchecked_sentences():
    # _checked_sentence skips Sentence's checks, so only the modules that
    # check the columns they make (the block reader's and augmentation's)
    # may call it
    root = Path(__file__).resolve().parents[1]
    paths = (sorted((root / "src" / "seqtag").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
             + sorted((root / "perfbench").glob("*.py")))
    callers = sorted({str(path.relative_to(root)) for path in paths
                      if _calls(ast.parse(path.read_text(encoding="utf-8")),
                                ("_checked_sentence",))})
    assert callers == ["src/seqtag/augment.py", "src/seqtag/corpus.py"]
