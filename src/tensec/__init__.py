"""Exact decision procedure for non-parallelizable planar tensegrities.

Everything runs over exact rational projective coordinates: self-stress
spaces are computed as exact null spaces, framed-cycle monodromies as
chains of perspectivities (run as raw integer cross products, with one
canonical point at the end), and graphs compile to symbolic systems of
meet/join conditions that are cross-validated against the null-space
oracle.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
