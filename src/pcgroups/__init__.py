"""Partially commutative groups presented by finite simple graphs.

The package decides, for the group A(G) presented by a graph G (vertices
generate, adjacent generators commute), whether A(G) is Howson / fully
residually free / a free product of free-abelian groups, and ships the
machinery behind the verdict: canonical normal forms for group elements,
inclusion and retraction onto the subgroup generated by a vertex subset,
Stallings automata for subgroups of free groups, and a per-stage certificate
that Z x F2 fails the Howson property.

Importing the package loads three layers: ``errors``, ``graphs`` and
``classify``, which is all that the verdict needs.  Any other name is served
by the module ``__getattr__`` (PEP 562), by one rule:

* a name that starts with ``_`` (a dunder probe such as ``__wrapped__``, or a
  private name) loads nothing and is missing; ``from pcgroups import
  __main__`` still works, because the import system then loads the submodule;
* the name of a submodule (``words``, ``visible``, ``stallings``, ``zf2``,
  ``cli``) imports that submodule only;
* any other name imports ``words``, ``visible``, ``stallings`` and ``zf2`` in
  that order until one lists it in its ``__all__``, and is bound here.

So a miss on a public-looking name, such as ``hasattr(pcgroups, "nope")``,
still loads those four layers before it raises ``AttributeError``: telling
it apart without loading them would take a second list of the public names.
Reading ``__all__`` (as ``from pcgroups import *`` and ``dir`` do) loads
every layer.

The name ``classify`` is the function, not the layer of the same name:
``pcgroups.classify`` and even ``import pcgroups.classify as m`` give the
function.  Reach the layer with ``importlib.import_module("pcgroups.classify")``
or ``sys.modules["pcgroups.classify"]``.

The value classes ``ClassificationReport``, ``ExplicitCatalogEntry``,
``NonFgCertificate`` and ``VertexRestriction`` are ``typing.NamedTuple``
classes, not dataclasses, so no layer imports ``dataclasses``.
"""

import importlib

from .classify import *  # noqa: F403  (binds ``classify`` to the function)
from .errors import *  # noqa: F403
from .graphs import *  # noqa: F403

_LAZY = ("words", "visible", "stallings", "zf2")
_SUBMODULES = _LAZY + ("cli",)


def _layer(name):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name == "__all__":
        # each layer lists its public names once, in its own ``__all__``
        value = [n for layer in ("errors", "graphs", "classify") + _LAZY for n in _layer(layer).__all__]
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    elif name in _SUBMODULES:
        return _layer(name)  # the import binds the submodule here
    else:
        for layer in map(_layer, _LAZY):
            if name in layer.__all__:
                value = getattr(layer, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})


__version__ = "0.1.0"
