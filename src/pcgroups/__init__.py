"""Partially commutative groups presented by finite simple graphs.

The package decides, for the group A(G) presented by a graph G (vertices
generate, adjacent generators commute), whether A(G) is Howson / fully
residually free / a free product of free-abelian groups, and ships the
machinery behind the verdict: canonical normal forms for group elements,
inclusion and retraction onto the subgroup generated by a vertex subset,
Stallings automata for subgroups of free groups, and a per-stage certificate
that Z x F2 fails the Howson property.
"""

from . import classify, errors, graphs, stallings, visible, words, zf2

# Each layer lists its public names once, in its own ``__all__``.
__all__ = (errors.__all__ + graphs.__all__ + words.__all__ + visible.__all__
           + classify.__all__ + stallings.__all__ + zf2.__all__)

# After ``__all__`` is read: this star import rebinds ``classify`` from the
# layer to its function.
from .classify import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .graphs import *  # noqa: E402,F403
from .stallings import *  # noqa: E402,F403
from .visible import *  # noqa: E402,F403
from .words import *  # noqa: E402,F403
from .zf2 import *  # noqa: E402,F403

__version__ = "0.1.0"
