"""A command loads only the layers it runs, and the package name ``classify``
stays the function however the package is entered.

Each check runs in a fresh interpreter: in this one, other tests have long
since loaded every layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN_INVOCATIONS

SRC = Path(__file__).resolve().parent.parent / "src"

# Prints, as JSON, the pcgroups layers and ``dataclasses`` if loaded.
LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'dataclasses' or m.startswith('pcgroups.'))))")

RUN = "import io, sys; from pcgroups.cli import run; assert run(sys.argv[1:], stdout=io.StringIO()) == 0; "

# command -> the layers beyond errors, graphs and classify that it loads
LAYERS_RUN = {
    "classify": (),
    "embed": (),
    "self-check": (),
    "normal-form": ("words",),
    "equal": ("words",),
    "member-visible": ("words", "visible"),
    "intersect-free": ("words", "stallings"),
    "demo-nonhowson": ("words", "stallings", "zf2"),
}

EAGER = {"pcgroups.classify", "pcgroups.cli", "pcgroups.errors", "pcgroups.graphs"}


def fresh(code, *args):
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return json.loads(done.stdout)


def test_importing_the_cli_loads_only_the_verdict_layers():
    assert set(fresh("import pcgroups.cli; " + LOADED)) == EAGER


VERDICT = EAGER - {"pcgroups.cli"}

# code run after ``import pcgroups`` -> the layers it leaves loaded
NAMESPACE_READS = {
    "from pcgroups import cli": EAGER,
    "from pcgroups import words": VERDICT | {"pcgroups.words"},
    # a dunder probe or a private name loads nothing to look for it
    "assert not hasattr(pcgroups, '__wrapped__')": VERDICT,
    "assert not hasattr(pcgroups, '_x')": VERDICT,
}


@pytest.mark.parametrize("code", sorted(NAMESPACE_READS))
def test_a_package_name_loads_only_its_module(code):
    assert set(fresh(f"import pcgroups; {code}; " + LOADED)) == NAMESPACE_READS[code]


def test_dir_lists_every_public_name():
    # dir is read first, while no layer but the verdict's is loaded
    code = "import json, pcgroups; names = dir(pcgroups); print(json.dumps(sorted(set(pcgroups.__all__) - set(names))))"
    assert fresh(code) == []


@pytest.mark.parametrize("command", sorted(LAYERS_RUN))
def test_a_command_loads_only_its_layers(command):
    loaded = fresh(RUN + LOADED, *GOLDEN_INVOCATIONS[command])
    assert set(loaded) == EAGER | {f"pcgroups.{layer}" for layer in LAYERS_RUN[command]}


CLASH = """
import importlib, io, json, sys
import pcgroups
from pcgroups.cli import run

def check():
    layer = sys.modules["pcgroups.classify"]
    assert type(layer) is type(sys) and pcgroups.classify is layer.classify

check()
for argv in json.loads(sys.argv[1]):
    assert run(argv, stdout=io.StringIO()) == 0
    check()
for name in ("words", "visible", "stallings", "zf2"):
    for attr in importlib.import_module("pcgroups." + name).__all__:
        getattr(pcgroups, attr)
    check()
star = {}
exec("from pcgroups import *", star)
assert star["classify"] is sys.modules["pcgroups.classify"].classify
check()
print("true")
"""


def test_classify_stays_the_function():
    assert fresh(CLASH, json.dumps(list(GOLDEN_INVOCATIONS.values()))) is True
