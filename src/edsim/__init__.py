"""Deterministic emergency-department shift simulator and analysis toolkit."""

__version__ = "0.1.0"
