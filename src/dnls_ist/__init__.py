"""Inverse scattering transform for the nonlocal PT-symmetric AL lattice."""

__version__ = "0.1.0"
