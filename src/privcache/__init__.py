"""Demand-private coded caching.

A library and CLI for the virtual-user demand-private caching scheme:
placement, delivery, decoding, exhaustive correctness and exact privacy
verification, and the exact-rational memory-rate tradeoff machinery for
the two-file case.

The namespace is lazy (PEP 562): `import privcache` loads no submodule,
and each exported name imports its home module on first access, then
sits in the package globals like an eager import.  So a session that
only places, delivers and decodes never loads `verify`, `tradeoff`,
`fractions` or the per-element reference layer (`reference`: subset
objects, `compute_y`, `x_segment`, the demand classes), which only the
tests and the oracle suites read.

The value classes (`SchemeParams`, `AuxDemand`, the payloads,
`VerificationReport`, ...) write explicit
constructors on the small bases of `_record`, so no class is generated
from source at import time and neither a session nor the CLI loads
`inspect`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bitvec": ("Bits",),
    "combinat": ("ScaleLimitError", "binomial"),
    "reference": (
        "DemandClass",
        "SubsetIndex",
        "compute_y",
        "enumerate_r_subsets",
        "f_map",
        "subset_rank",
        "subset_unrank",
        "x_segment",
    ),
    "scheme": (
        "AuxDemand",
        "CacheContent",
        "DeliverySignal",
        "FileLibrary",
        "SchemeParams",
        "SessionRandomness",
        "VVector",
        "assemble_delivery",
        "aux_demand",
        "build_delivery",
        "build_v",
        "decode",
        "g_map",
        "place",
    ),
    "tradeoff": ("tight_intervals", "tightness_rows"),
    "verify": (
        "VerificationReport",
        "oracle_demand_identity",
        "oracle_y_reconstruction",
        "verify_correctness_exhaustive",
        "verify_distribution_lemma",
        "verify_privacy",
    ),
    "yma": ("UVector", "build_u_vector", "yma_delivery"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "plan"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups never reach this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
