"""The package exports exactly what its layer modules export."""

import importlib
from pathlib import Path

import pcgroups

LAYERS = ("graphs", "words", "visible", "classify", "stallings", "zf2")


def test_package_all_is_the_union_of_the_layers():
    names = {"InputError", "ParseError"}
    for layer in LAYERS:
        names.update(importlib.import_module(f"pcgroups.{layer}").__all__)
    assert sorted(pcgroups.__all__) == sorted(names)  # a name listed twice fails too


def test_every_listed_name_resolves():
    for layer in LAYERS:
        module = importlib.import_module(f"pcgroups.{layer}")
        for name in module.__all__:
            assert getattr(pcgroups, name) is getattr(module, name), (layer, name)
    for name in pcgroups.__all__:
        assert hasattr(pcgroups, name), name


def test_only_graphs_reads_a_graphs_layout():
    # the other layers ask a graph's queries, so its stored shape can change
    # inside graphs alone
    readers = []
    for path in sorted(Path(pcgroups.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "graphs.py" and ("._adj" in text or "SimpleGraph._trusted" in text):
            readers.append(path.name)
    assert readers == []
