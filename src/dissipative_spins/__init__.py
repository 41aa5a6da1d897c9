"""Tailored jump operators and variational steady states for dissipative spin lattices."""

__version__ = "0.1.0"
