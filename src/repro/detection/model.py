"""Single-object detector = backbone + YOLO-style regression head."""

from __future__ import annotations

import numpy as np

from ..nn import Tensor
from ..nn.module import Module
from .head import YoloHead

__all__ = ["Detector"]


class Detector(Module):
    """Composable detector used for SkyNet and every Table 2 baseline.

    Parameters
    ----------
    backbone:
        Any module mapping (N, 3, H, W) -> (N, C, GH, GW) and exposing an
        ``out_channels`` attribute.
    head:
        Optional pre-built :class:`YoloHead`; constructed from
        ``backbone.out_channels`` when omitted.
    """

    def __init__(self, backbone: Module, head: YoloHead | None = None) -> None:
        super().__init__()
        self.backbone = backbone
        self.head = head if head is not None else YoloHead(backbone.out_channels)
        self._sessions: dict = {}

    @property
    def anchors(self) -> np.ndarray:
        return self.head.anchors

    def forward(self, x: Tensor) -> Tensor:
        """Raw grid predictions (N, K*5, GH, GW)."""
        return self.head(self.backbone(x))

    def train(self, mode: bool = True) -> "Detector":
        # Sessions snapshot compiled weights; any return to training
        # invalidates the snapshots, so drop them and rebuild on demand.
        if mode:
            for session in self._sessions.values():
                session.close()
            self._sessions = {}
        return super().train(mode)

    # ------------------------------------------------------------------ #
    # the Session path
    # ------------------------------------------------------------------ #
    def session(self, config=None, serve=None):
        """The cached :class:`~repro.runtime.Session` for ``config``.

        Sessions are keyed by their (frozen, hashable) config and are
        invalidated by :meth:`train`.
        """
        from ..runtime import Session, SessionConfig, eager_forced

        config = config if config is not None else SessionConfig()
        if eager_forced():
            # Quantization contexts perturb live weights: cached engine
            # sessions hold stale snapshots, and caching an eager one
            # here would shadow the engine path after the context ends.
            return Session.load(self, config, serve=serve)
        session = self._sessions.get(config)
        if session is None:
            session = Session.load(self, config, serve=serve)
            self._sessions[config] = session
        return session

    def predict(self, images: np.ndarray, config=None) -> np.ndarray:
        """Inference: (N, 3, H, W) images -> (N, 4) cxcywh boxes.

        ``config`` is a :class:`~repro.runtime.SessionConfig` selecting
        the backend (compiled engine by default).
        """
        was_training = self.training
        if was_training:
            self.eval()
        try:
            return self.session(config).run(images)
        finally:
            if was_training:
                self.train()
