"""The ``copcone`` namespace imports a layer only when one of its names is
first used; ``import copcone.cli`` puts every traced layer in ``sys.modules``
but runs ``factor``, ``bounds`` and ``extremal`` only when a command uses them."""

import importlib
import inspect
import json
import subprocess
import sys

import pytest

import copcone
from conftest import ROOT, checkout_env

# The modules that are attributes of the package without an explicit import.
MODULES = ("bounds", "cones", "errors", "extremal", "factor", "kernel", "special")
# Layers whose public names the package re-exports.
EXPORTING = ("bounds", "cones", "extremal", "factor", "kernel", "special")
# The layers copbench's tracer wraps by reading ``sys.modules`` (and cli.main).
TRACED = ("kernel", "cones", "factor", "bounds", "extremal", "io")


def fresh(code: str, result: str):
    """The JSON value of the expression ``result`` in a fresh interpreter,
    started in the checkout, after it has run ``code``."""
    probe = f"{code}\nimport json, sys, types\nprint(json.dumps({result}))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=checkout_env(), cwd=ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def loaded_after(code: str) -> list[str]:
    """The copcone submodules a fresh interpreter has loaded after ``code``."""
    return fresh(code, "sorted(k for k in sys.modules if k.startswith('copcone.'))")


def ran_after(argv: list[str]) -> tuple[int, list[str]]:
    """The exit code of ``cli.main(argv)`` in a fresh interpreter, and the
    copcone submodules whose code has run.  A lazy module that never ran is
    not a plain module object, and ``type()`` does not make it run."""
    code = f"""
import contextlib, io
from copcone import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main({argv!r})
    except SystemExit as exc:
        code = exc.code
"""
    ran = "sorted(k[8:] for k, m in sys.modules.items() if k.startswith('copcone.') and type(m) is types.ModuleType)"
    return tuple(fresh(code, f"[code, {ran}]"))


def test_import_loads_no_layer():
    assert loaded_after("import copcone") == []


def test_a_copositivity_test_loads_only_its_layers():
    assert loaded_after("import copcone\ncopcone.is_copositive") == [
        "copcone.cones",
        "copcone.errors",
        "copcone.kernel",
    ]


def test_importing_the_cli_loads_every_layer():
    # a tracer that wraps each layer after importing copcone.cli finds them
    # all; special is imported only by the layers that use it
    assert loaded_after("import copcone.cli") == [f"copcone.{m}" for m in sorted((*TRACED, "cli", "errors"))]


START = ["cli", "cones", "errors", "io", "kernel"]


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["--help"], START),
        (["check", "--cone", "copositive", "fixtures/horn.json"], START),
        (["factorize", "--method", "dd", "fixtures/dd_example.json"], [*START, "factor", "special"]),
        (["orbit", "fixtures/e12.json"], [*START, "extremal", "special"]),
        (
            ["verify-orth", "fixtures/w6.json", "fixtures/hornplus0.json", "--factor", "fixtures/w6.json"],
            [*START, "extremal", "factor", "special"],
        ),
        (["bounds", "--n", "6"], [*START, "bounds", "extremal", "special"]),
        (
            ["bounds", "fixtures/w6.json", "--witness", "fixtures/hornplus0.json", "--factor", "fixtures/w6.json"],
            [*START, "bounds", "extremal", "factor", "special"],
        ),
    ],
    ids=["help", "check", "factorize", "orbit", "verify-orth-factor", "bounds-table", "bounds-witness-factor"],
)
def test_a_command_runs_only_the_layers_it_uses(argv, layers):
    assert ran_after(argv) == (0, sorted(layers))


def test_the_cli_and_the_package_share_each_layer_module():
    checks = [
        "copcone.bounds is sys.modules['copcone.bounds'] is copcone.cli.bounds_mod",
        "copcone.extremal is sys.modules['copcone.extremal'] is copcone.cli.extremal",
        "copcone.factor is sys.modules['copcone.factor'] is copcone.cli.factor",
        "copcone.dd_factorize is copcone.factor.dd_factorize",
    ]
    assert fresh("import copcone.cli", f"[{', '.join(checks)}]") == [True] * len(checks)


def test_every_traced_function_resolves_after_importing_the_cli():
    # what copbench's Tracer.install() does: each layer from sys.modules,
    # every name in its __all__, and cli.main
    code = f"""
import inspect, sys
import copcone.cli
funcs = {{}}
for layer in {TRACED!r}:
    mod = sys.modules[f"copcone.{{layer}}"]
    funcs[layer] = sorted(a for a in mod.__all__ if inspect.isfunction(getattr(mod, a)))
assert inspect.isfunction(sys.modules["copcone.cli"].main)
"""
    lazy = "[k for k, m in sys.modules.items() if k.startswith('copcone') and type(m) is not types.ModuleType]"
    funcs, still_lazy = fresh(code, f"[funcs, {lazy}]")
    assert still_lazy == []
    for layer in TRACED:
        mod = importlib.import_module(f"copcone.{layer}")
        assert funcs[layer] == sorted(a for a in mod.__all__ if inspect.isfunction(getattr(mod, a))), layer
        assert funcs[layer], layer


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
