"""The package's lazy exports (PEP 562 ``__getattr__`` and ``__dir__``)."""

import importlib
import json
import subprocess
import sys

import pytest

import wblow


@pytest.mark.parametrize("name", wblow.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"wblow.{wblow._MODULE_OF[name]}")
    assert wblow.__getattr__(name) is getattr(module, name)
    assert getattr(wblow, name) is getattr(module, name)
    defined_in = getattr(getattr(module, name), "__module__", module.__name__)
    assert defined_in in (module.__name__, "builtins")  # ExpVec is the builtin tuple


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wblow.no_such_name
    assert getattr(wblow, "no_such_name", None) is None


def test_dir_lists_every_export():
    assert set(wblow.__all__) <= set(dir(wblow))
    assert "__version__" in dir(wblow)


def test_importing_the_cli_does_not_load_lifting():
    code = "import json, sys, wblow.cli; print(json.dumps([m for m in sys.modules if 'wblow' in m]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "wblow.cli" in loaded and "wblow.lifting" not in loaded


def test_main_module_imports_without_running():
    # `python -m wblow` runs it as __main__; imported under its own name it only binds the entry point
    entry = importlib.import_module("wblow.__main__")
    assert entry.main is importlib.import_module("wblow.cli").main
