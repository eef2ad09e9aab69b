"""rodfind: text-to-shape retrieval for parametric linking rods.

Library layout mirrors the pipeline: taxonomy (the one shipped linking-rod
feature schema, which every function reads through `default_schema()`, and
canonical text), geometry (CSG solids, STL, voxel grids), dataset (paired
corpus and its codecs), encoders (text and shape networks), training
(bidirectional triplet objective), doe (orthogonal-experiment tuning),
retrieval (gallery index and queries), cli (batch front end).

The submodules load on first attribute access (PEP 562), so importing the
package loads no numpy and `rodfind --threads` can still pin the BLAS pool.
The taxonomy re-exports below use the standard library only.
"""

import importlib

from .taxonomy import (
    FeatureSchema,
    FeatureTriplet,
    LinkingRodSpec,
    SizeClass,
    default_schema,
    parse_text,
    render_text,
    spec_to_triplets,
    validate_spec,
)

__version__ = "0.1.0"

_SUBMODULES = frozenset({"cli", "dataset", "doe", "encoders", "geometry", "nn",
                         "retrieval", "training"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
