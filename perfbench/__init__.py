"""Sweep benchmark for qmetro: see perfbench/README.md."""
