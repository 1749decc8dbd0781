"""The ``copcone`` namespace imports a layer only when one of its names is
first used; ``import copcone.cli`` still loads every layer."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import copcone
from conftest import SRC

# The modules that are attributes of the package without an explicit import.
MODULES = ("bounds", "cones", "errors", "extremal", "factor", "kernel", "special")
# Layers whose public names the package re-exports.
EXPORTING = ("bounds", "cones", "extremal", "factor", "kernel", "special")


def loaded_after(code: str) -> list[str]:
    """The copcone submodules a fresh interpreter has loaded after ``code``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(k for k in sys.modules if k.startswith('copcone.'))))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_layer():
    assert loaded_after("import copcone") == []


def test_a_copositivity_test_loads_only_its_layers():
    assert loaded_after("import copcone\ncopcone.is_copositive") == [
        "copcone.cones",
        "copcone.errors",
        "copcone.kernel",
    ]


def test_importing_the_cli_loads_every_layer():
    # a tracer that wraps each layer after importing copcone.cli finds them all
    expected = {f"copcone.{m}" for m in (*MODULES, "cli", "io")}
    assert set(loaded_after("import copcone.cli")) == expected


def test_module_attributes_resolve_without_an_import():
    code = "import copcone\n" + "\n".join(f"assert copcone.{m}.__name__ == 'copcone.{m}'" for m in MODULES)
    assert loaded_after(code) == [f"copcone.{m}" for m in MODULES]
    for m in MODULES:
        assert getattr(copcone, m) is importlib.import_module(f"copcone.{m}")


def test_each_public_name_is_its_defining_layers_object():
    for name in copcone.__all__:
        homes = [m for m in EXPORTING if name in importlib.import_module(f"copcone.{m}").__all__]
        assert len(homes) == 1, (name, homes)
        assert getattr(copcone, name) is getattr(importlib.import_module(f"copcone.{homes[0]}"), name), name


def test_star_import_binds_all_public_names():
    ns: dict = {}
    exec("from copcone import *", ns)
    assert set(ns) - {"__builtins__"} == set(copcone.__all__)


def test_dir_lists_the_public_names():
    assert dir(copcone) == sorted(copcone.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        copcone.no_such_name  # noqa: B018
    assert not hasattr(copcone, "no_such_name")
