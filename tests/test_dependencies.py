"""The library runs on the standard library and numpy alone."""
import os
import subprocess
import sys

import distiht

IMPORT_ALL = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import distiht
for info in pkgutil.walk_packages(distiht.__path__, "distiht."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "distiht"})))
"""


def test_every_submodule_imports_only_stdlib_and_numpy():
    src = os.path.dirname(os.path.dirname(distiht.__file__))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
