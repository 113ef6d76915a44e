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
    # the Augmentation oracle compares the chunks of tags before and after
    # translation; the package scans only tags it has checked already
    # (_scan_chunks), and repair_bio makes its own one-pass scan
    "extract_chunks",
}

# Methods and properties no code in the package or perfbench reads by
# name, with the reason each stays.
UNREAD_METHODS = {
    # the [PRIMARY] gradient suite's pass test: a report passes below a
    # tolerance the caller picks
    "GradCheckReport.passed",
    # argparse calls it on a usage error; it raises so that the command
    # exits 1, where argparse would exit 2
    "_Parser.error",
}


def test_no_unreferenced_definitions():
    # every module-level def and class of src/seqtag, and every method and
    # property of its classes, is read by name somewhere in the package or
    # in perfbench/: a name in __all__ that only tests read is not used,
    # unless it is an oracle's entry point or an allow-listed method
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
    # a dunder is called by Python itself
    unread = {f"{cls.name}.{node.name}" for tree in trees.values()
              for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name not in read
              and not (node.name.startswith("__") and node.name.endswith("__"))}
    assert sorted(unread - UNREAD_METHODS) == []
    assert UNREAD_METHODS <= unread


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
    # _checked_sentence skips Sentence's checks and _checked_corpus
    # LabeledCorpus's, so only the modules that check what they build (the
    # reader's and augmentation's) may call them, or name them at all
    # (map(_checked_sentence, ...) calls it too)
    root = Path(__file__).resolve().parents[1]
    paths = (sorted((root / "src" / "seqtag").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
             + sorted((root / "perfbench").glob("*.py")))
    trees = {str(path.relative_to(root)): ast.parse(path.read_text(encoding="utf-8"))
             for path in paths}
    for constructor in ("_checked_sentence", "_checked_corpus"):
        readers = sorted({path for path, tree in trees.items() for node in ast.walk(tree)
                          if constructor in (getattr(node, "id", None),
                                             getattr(node, "attr", None))})
        assert readers == ["src/seqtag/augment.py", "src/seqtag/corpus.py"], constructor
