"""The package exports exactly what its layer modules export."""

import importlib

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
