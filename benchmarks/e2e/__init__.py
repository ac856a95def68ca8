"""End-to-end discover benchmark: four workloads, correctness-checked
metrics, per-layer attribution from outside the program (README.md)."""
