"""Delay-oriented wireless link-scheduling workbench.

Builds conflict graphs, schedules transmissions with distributed/centralized/
exact independent-set solvers, simulates the queue dynamics, and trains a
small graph-convolutional network to emit delay-aware per-link utilities.
"""

__version__ = "0.1.0"
