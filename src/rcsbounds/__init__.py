"""Reverse Cauchy-Schwarz bounds for positive forms over matrix algebras.

The package evaluates both sides of each reverse inequality, checks every
hypothesis it needs, constructs witnesses attaining the sharp constant,
and fuzz-tests the whole family against independent oracles.

The package exports the public names of its layers, each listed once in
its module's __all__.
"""

from . import bounds, forms, harness, matalg, rng
from .bounds import *  # noqa: F403
from .forms import *  # noqa: F403
from .harness import *  # noqa: F403
from .matalg import *  # noqa: F403
from .rng import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *(name for layer in (bounds, forms, harness, matalg, rng) for name in layer.__all__),
]
