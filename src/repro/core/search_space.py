"""Search space for Stage 2: Bundle-stacked candidate networks.

A candidate (a PSO *particle*) is fully described by

* its Bundle type (particles of the same type form a *group*),
* ``dim1`` — the output channels of each Bundle replication,
* ``dim2`` — where the 2x2 poolings sit between replications.

"Both dimensions affect accuracy and hardware performance."
(Section 4.2.)  :class:`CandidateNet` materializes a particle as an
executable backbone; :meth:`CandidateDNA.descriptor` gives the
structural view the hardware models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..hardware.descriptor import NetDescriptor, describe
from ..nn import Tensor
from ..nn.layers import MaxPool2d, Reorg
from ..nn.module import Module, ModuleList
from ..utils.rng import default_rng
from .bundles import BundleSpec, GenericBundle

__all__ = ["CandidateDNA", "CandidateNet", "random_dna"]


@dataclass(frozen=True)


class CandidateDNA:
    """Genotype of one particle.

    Attributes
    ----------
    bundle:
        The Bundle type (group identity — it never changes during PSO).
    channels:
        ``dim1``: output channels per replication, length = stack depth.
    pool_positions:
        ``dim2``: indices (into the stack) after which a 2x2 max-pool is
        inserted; sorted, unique.
    activation:
        Activation for every Bundle (Stage 3 switches this to relu6).
    bypass:
        Whether a reorg bypass feeds the last Bundle (Stage 3 feature).
    """

    bundle: BundleSpec
    channels: tuple[int, ...]
    pool_positions: tuple[int, ...]
    activation: str = "relu"
    bypass: bool = False

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("need at least one Bundle replication")
        if any(c < 2 for c in self.channels):
            raise ValueError("channel counts must be >= 2")
        pools = tuple(sorted(set(self.pool_positions)))
        if pools != tuple(self.pool_positions):
            object.__setattr__(self, "pool_positions", pools)
        if pools and (pools[0] < 0 or pools[-1] >= len(self.channels)):
            raise ValueError("pool positions must index into the stack")
        if self.bypass and len(self.channels) < 3:
            raise ValueError("bypass needs at least 3 replications")

    @property
    def depth(self) -> int:
        return len(self.channels)

    @property
    def stride(self) -> int:
        return 2 ** len(self.pool_positions)

    def with_stage3_features(self) -> "CandidateDNA":
        """Stage 3 feature addition: bypass + reordering + ReLU6."""
        return replace(self, activation="relu6", bypass=True)

    # ------------------------------------------------------------------ #
    def _bypass_source(self) -> int:
        """Replication whose output feeds the bypass.

        The bypass must cross exactly one pooling (its reorg stride is
        2), so it taps the output of the replication that sits right
        before the *last* pooling, mirroring SkyNet's Bundle-3 tap.
        """
        if not self.pool_positions:
            raise ValueError("bypass requires at least one pooling")
        return self.pool_positions[-1]

    def descriptor(self, input_hw: tuple[int, int], in_channels: int = 3
                   ) -> NetDescriptor:
        """Structural descriptor for the hardware models: the trace of
        the :class:`CandidateNet` this DNA builds.  Its weights come from
        a private generator, so describing moves no caller's stream."""
        net = CandidateNet(self, in_channels, rng=np.random.default_rng(0))
        return describe(net, input_hw)


def random_dna(
    bundle: BundleSpec,
    depth: int = 6,
    n_pools: int = 3,
    channel_choices: tuple[int, ...] = (8, 12, 16, 24, 32, 48, 64),
    rng: np.random.Generator | None = None,
) -> CandidateDNA:
    """Sample a random particle for the initial PSO population.

    Channel widths are drawn non-decreasing (standard CNN shape prior);
    pooling positions are a random subset of the first ``depth - 1``
    slots.
    """
    rng = default_rng(rng)
    if n_pools >= depth:
        raise ValueError("need fewer poolings than replications")
    raw = sorted(rng.choice(channel_choices, size=depth))
    pools = tuple(
        sorted(rng.choice(depth - 1, size=n_pools, replace=False).tolist())
    )
    return CandidateDNA(
        bundle=bundle,
        channels=tuple(int(c) for c in raw),
        pool_positions=pools,
    )


class CandidateNet(Module):
    """Executable backbone for a :class:`CandidateDNA`.

    Mirrors :class:`repro.core.skynet.SkyNetBackbone` generically: with
    ``dna.with_stage3_features()`` and SkyNet's channel plan this *is*
    SkyNet (the tests assert that equivalence).
    """

    def __init__(
        self,
        dna: CandidateDNA,
        in_channels: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = default_rng(rng)
        self.dna = dna
        self.in_channels = in_channels
        self.stride = dna.stride
        pools = set(dna.pool_positions)
        self.bundles = ModuleList()
        self._pool_after: list[bool] = []
        self.pool = MaxPool2d(2)
        bypass_src = dna._bypass_source() if dna.bypass else None
        self._bypass_src = bypass_src
        if dna.bypass:
            self.reorg = Reorg(2)

        cur = in_channels
        bypass_ch = 0
        for j, ch in enumerate(dna.channels):
            is_last = j == dna.depth - 1
            in_ch = cur
            if dna.bypass and is_last:
                in_ch = cur + bypass_ch
            self.bundles.append(
                GenericBundle(dna.bundle, in_ch, ch, dna.activation, rng)
            )
            cur = ch
            if dna.bypass and j == bypass_src:
                bypass_ch = cur * 4
            self._pool_after.append(j in pools and not is_last)
        self.out_channels = cur

    def forward(self, x: Tensor) -> Tensor:
        bypass: Tensor | None = None
        last = len(self.bundles) - 1
        for j, bundle in enumerate(self.bundles):
            if self.dna.bypass and j == last and bypass is not None:
                x = Tensor.concat([x, bypass], axis=1)
            x = bundle(x)
            if self.dna.bypass and j == self._bypass_src:
                bypass = self.reorg(x)
            if self._pool_after[j]:
                x = self.pool(x)
        return x
