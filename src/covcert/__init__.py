"""Certified interval-arithmetic verification of minimal-covolume lattice
bounds for symplectic groups."""

__version__ = "0.1.0"
