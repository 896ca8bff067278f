"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from ...utils.rng import default_rng
from .. import functional as F
from ..init import kaiming_uniform
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Linear", "Flatten"]


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with x (N, in_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform((out_features, in_features), rng))
        self.bias = (
            Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)
