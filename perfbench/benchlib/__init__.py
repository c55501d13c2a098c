"""Helpers of the repository benchmark; ``perfbench/run.py`` is the entry point."""
