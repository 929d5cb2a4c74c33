"""Cayley graphs from difference sets: exact spectra and expander certification."""

from .groups import AbelianGroup, cyclic
from .gf2 import (
    Gf2Field,
    KloostermanTable,
    kloosterman_value_set,
)
from .groupring import (
    GdsCertificate,
    difference_counts,
    has_multiplier_minus_one,
    search_gds,
    verify_gds,
)
from .graphs import CayleyGraph, ConnectionSet, DisconnectedGraphError, GraphStats, InvariantError
from .spectral import (
    RamanujanVerdict,
    Spectrum,
    gds_predicted_eigenvalues,
    ramanujan_check,
    spectrum_by_characters,
    table_identity,
)
from .constructions import (
    ConstructionReport,
    bent_hadamard_set,
    certify,
    dij_set,
    kloosterman_trace_set,
    polar_trace_set,
    theorem33_condition,
    theorem33_set,
)
from .search import SearchHit, search_ramanujan_circulant

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "cyclic",
    "Gf2Field",
    "KloostermanTable",
    "kloosterman_value_set",
    "GdsCertificate",
    "difference_counts",
    "has_multiplier_minus_one",
    "search_gds",
    "verify_gds",
    "CayleyGraph",
    "ConnectionSet",
    "DisconnectedGraphError",
    "GraphStats",
    "InvariantError",
    "RamanujanVerdict",
    "Spectrum",
    "gds_predicted_eigenvalues",
    "ramanujan_check",
    "spectrum_by_characters",
    "table_identity",
    "ConstructionReport",
    "bent_hadamard_set",
    "certify",
    "dij_set",
    "kloosterman_trace_set",
    "polar_trace_set",
    "theorem33_condition",
    "theorem33_set",
    "SearchHit",
    "search_ramanujan_circulant",
]
