"""Seeded end-to-end and per-layer benchmark for memtrack (see README.md)."""
