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

from .core import (
    bind,
    cosine_similarity,
    delta,
    exact_inverse,
    project,
    pseudo_inverse,
    sample_standard,
    sample_unitary,
    unbind,
)
from .labels import (
    LabelSpace,
    decode_threshold,
    decode_topk,
    encode_labels,
    loss,
    loss_gradient,
    make_label_space,
)
from .vsa import VsaKind, vsa_bind, vsa_sample, vsa_unbind

__all__ = [
    "LabelSpace",
    "VsaKind",
    "__version__",
    "bind",
    "cosine_similarity",
    "decode_threshold",
    "decode_topk",
    "delta",
    "encode_labels",
    "exact_inverse",
    "loss",
    "loss_gradient",
    "make_label_space",
    "project",
    "pseudo_inverse",
    "sample_standard",
    "sample_unitary",
    "unbind",
    "vsa_bind",
    "vsa_sample",
    "vsa_unbind",
]
