"""Seeded benchmark of the abgup CLI; run ``python3 perfbench/run.py --help``."""
