"""Modewise Johnson-Lindenstrauss sketching of dense tensors.

Per-mode random embeddings (explicit Gaussian or implicit subsampled-DFT)
compose into one- and two-stage tensor sketches, with coherence
diagnostics for CP bases, compressed least-squares coefficient recovery,
and a CP-ALS fitter.  The ``modesketch`` CLI drives file I/O and seeded
experiment sweeps.

The package namespace republishes the public names of its modules: each
name listed in the ``__all__`` of ``tensor``, ``embeddings``, ``sketch``,
``diagnostics`` and ``cpfit`` is importable from ``modesketch`` itself.
"""

from .tensor import *  # noqa: F401,F403
from .embeddings import *  # noqa: F401,F403
from .sketch import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .cpfit import *  # noqa: F401,F403

__version__ = "0.1.0"
