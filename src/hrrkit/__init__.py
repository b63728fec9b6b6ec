"""Holographic reduced representations with a stability projection.

The package provides the circular-convolution algebra (hrrkit.core),
alternative binding operators for comparison (hrrkit.vsa), Monte-Carlo
capacity and response benchmarks (hrrkit.capacity), a dense-label encoding
with its query loss for extreme multi-label classification
(hrrkit.labels), sparse dataset I/O (hrrkit.data), a from-scratch MLP
trainer (hrrkit.trainer), ranking metrics (hrrkit.metrics), and a CLI
(hrrkit.cli, installed as the `hrrkit` command).
"""

__version__ = "0.1.0"
