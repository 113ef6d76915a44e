import importlib
import pkgutil

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
