"""numpy, imported at its first use.

``np`` stands in for the numpy module: its first attribute read imports
numpy, and each attribute it hands out is cached on it. So ``import
snspdkit``, loading a config and the CLI commands that do no array
arithmetic do not pay for numpy at start-up, as ``modes`` already defers
scipy.sparse. Modules that annotate with ``np.ndarray`` use postponed
annotations, so the annotation does not import numpy either.
"""

import importlib


class _DeferredNumpy:
    def __getattr__(self, name):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)   # later reads find it without this hook
        return value


np = _DeferredNumpy()
