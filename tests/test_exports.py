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
    code = "import json, sys, wblow.cli; print(json.dumps(list(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "wblow.cli" in loaded and "wblow.lifting" not in loaded
    assert not {"dataclasses", "inspect", "wblow.blowup"} & set(loaded)


@pytest.mark.parametrize(
    "argv, wanted, unwanted",
    [
        (["ideal", "1/5(1,2,3,4)", "--k", "2"], set(), {"wblow.blowup", "dataclasses"}),
        (["charts", "1/1(1,2,3)"], {"wblow.blowup"}, {"dataclasses"}),
        (
            ["lift-check", "--sigma-prime", "1,2", "--m", "1", "--a", "1", "--dmax", "3"],
            {"wblow.lifting"},
            set(),
        ),
    ],
    ids=["ideal", "charts", "lift-check"],
)
def test_a_command_loads_only_the_modules_it_needs(argv, wanted, unwanted):
    # the report goes to stdout first; the last line is main's exit code and the loaded modules
    code = (
        "import json, sys\n"
        "from wblow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, list(sys.modules)]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == 0 and wanted <= set(loaded) and not unwanted & set(loaded)


def test_the_cli_module_names_blowup_and_nothing_else():
    import wblow.blowup
    import wblow.cli

    assert wblow.cli.blowup is wblow.blowup
    with pytest.raises(AttributeError, match="'wblow.cli' has no attribute 'no_such_name'"):
        wblow.cli.no_such_name


def test_main_module_imports_without_running():
    # `python -m wblow` runs it as __main__; imported under its own name it only binds the entry point
    entry = importlib.import_module("wblow.__main__")
    assert entry.main is importlib.import_module("wblow.cli").main
