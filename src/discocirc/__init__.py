"""Compile pregroup-parsed text into parameterised quantum circuits."""

__version__ = "0.1.0"
