"""Benchmark of the ``clara serve`` analysis daemon (see README.md)."""
