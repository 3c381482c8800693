"""Benchmark of the ASketch reproduction (see ``run.py``)."""
