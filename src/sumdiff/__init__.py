"""Exact workbench for sumset and difference-set combinatorics.

Subsets of finite abelian groups (and bounded integer sets via a
wraparound-safe embedding) with exact-rational doubling/difference constants,
injection witnesses, minimizer equality certificates, per-claim verdicts, and
an exhaustive (sigma, delta) landscape explorer.
"""

from . import errors, explorer, groups, petridis, ruzsa, sets, theorems
from ._version import VERSION as __version__
from .errors import *  # noqa: F401,F403
from .explorer import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .petridis import *  # noqa: F401,F403
from .ruzsa import *  # noqa: F401,F403
from .sets import *  # noqa: F401,F403
from .theorems import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name
    for module in (errors, groups, sets, ruzsa, petridis, theorems, explorer)
    for name in module.__all__
]
