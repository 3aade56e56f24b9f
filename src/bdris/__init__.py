"""Optimization and Monte Carlo simulation of beyond-diagonal RIS architectures.

A reconfigurable surface is modeled by a real symmetric susceptance matrix
whose sparsity pattern encodes the architecture (diagonal, block-diagonal,
tridiagonal, or dense).  The package provides per-architecture optimizers
for the received power of a single-user link, membership tests for channel
pairs that defeat the tridiagonal architecture, and a deterministic
experiment harness with a CLI front end.
"""

__version__ = "0.1.0"
