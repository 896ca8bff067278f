"""Tiled high-resolution inference: split → batch → remap → global NMS.

The paper's Fig. 6 shows 91% of DAC-SDC ground-truth boxes occupy less
than 9% of the frame.  Downscaling a large frame to the detector's input
resolution erases exactly those objects; the standard embedded-detector
answer (FastMOT's "tiling for small object detection") is to run the
detector on overlapping crops at native resolution instead:

1. **split** — cut each ``(C, H, W)`` frame into ``rows x cols``
   overlapping tiles of one common shape (uniform shape is what lets
   every tile of every frame ride in a single batched engine call);
2. **batch** — run all ``N * rows * cols`` tiles as *one* forward
   through the compiled engine (the batched im2col GEMM path);
3. **remap** — decode each tile's grid predictions in tile-local
   normalized coordinates, then map them into global *pixel*
   coordinates (pixel space keeps x/y aspect honest — the global frame
   is rarely square, so per-axis clipping bounds differ);
4. **merge** — one global cross-tile NMS per frame deduplicates the
   near-identical boxes that overlapping tiles produce for the same
   object, then the survivors are packed into a fixed-width array.

Packed detections are ``(N, max_detections, 5)`` float32 rows of
``(cx, cy, w, h, score)`` in global normalized coordinates, padded with
``score == PAD_SCORE`` — a dense ndarray so the serving stack can batch,
split and ship results exactly like any other output tensor.  Use
:func:`unpack_detections` to recover :class:`~repro.detection.Detection`
lists and :func:`top_boxes` for the single-object (N, 4) contract.

This is *image-space* tiling, unrelated to the FPGA loop tiling in
:mod:`repro.hardware.fpga.tiling` (which tiles feature maps across
on-chip BRAM buffers inside one layer).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import obs
from .boxes import clip_boxes, cxcywh_to_xyxy, xyxy_to_cxcywh
from .head import decode_grid
from .postprocess import DEFAULT_MAX_DETECTIONS, Detection, nms

__all__ = [
    "PAD_SCORE",
    "TilePlan",
    "FrameTiler",
    "split_frames",
    "unpack_detections",
    "top_boxes",
]

#: Score value marking padding rows in packed detection arrays.  Real
#: scores are sigmoid outputs in (0, 1), so any negative value is
#: unambiguous.
PAD_SCORE = -1.0


@dataclass(frozen=True)
class TilePlan:
    """The geometry of one frame's tiling: tile shape + crop origins.

    Build with :meth:`grid` for an evenly spaced ``rows x cols`` cover;
    the raw constructor accepts explicit origins (and validates that
    every tile lies fully inside the frame).
    """

    frame_hw: tuple[int, int]
    tile_hw: tuple[int, int]
    y_starts: tuple[int, ...]
    x_starts: tuple[int, ...]

    def __post_init__(self) -> None:
        fh, fw = self.frame_hw
        th, tw = self.tile_hw
        if fh < 1 or fw < 1:
            raise ValueError(f"frame must be non-empty, got {self.frame_hw}")
        if th < 1 or tw < 1:
            raise ValueError(f"tile must be non-empty, got {self.tile_hw}")
        if th > fh or tw > fw:
            raise ValueError(
                f"tile {self.tile_hw} does not fit in frame {self.frame_hw}"
            )
        if not self.y_starts or not self.x_starts:
            raise ValueError("need at least one tile per axis")
        for y0 in self.y_starts:
            if y0 < 0 or y0 + th > fh:
                raise ValueError(
                    f"tile at y={y0} lies outside the {self.frame_hw} frame"
                )
        for x0 in self.x_starts:
            if x0 < 0 or x0 + tw > fw:
                raise ValueError(
                    f"tile at x={x0} lies outside the {self.frame_hw} frame"
                )

    @classmethod
    def grid(
        cls,
        frame_hw: tuple[int, int],
        rows: int,
        cols: int,
        overlap: float = 0.25,
        divisor: int = 1,
    ) -> "TilePlan":
        """Evenly spaced ``rows x cols`` cover with ~``overlap`` ratio.

        The tile side is ``ceil(F / (n - (n-1)*overlap))`` so that ``n``
        tiles at stride ``tile*(1-overlap)`` span the frame; origins are
        then spaced evenly over ``[0, F - tile]``, which guarantees the
        first tile starts at 0, the last ends at the frame edge, and the
        achieved overlap is at least the requested ratio.

        ``divisor`` rounds the tile sides up to a multiple of the
        detector's total downsampling stride (8 for SkyNet: two 2x2
        pools and the stride-2 reorg) — an unaligned tile would be
        rejected by the reorg kernel mid-forward.
        """
        if rows < 1 or cols < 1:
            raise ValueError(f"need >= 1 tile per axis, got {rows}x{cols}")
        if not 0.0 <= overlap < 1.0:
            raise ValueError(
                f"overlap ratio must be in [0, 1) — an overlap of "
                f"{overlap!r} would make the stride non-positive (tiles "
                f"at least as large as their own step never advance)"
            )
        if divisor < 1:
            raise ValueError("divisor must be >= 1")
        fh, fw = int(frame_hw[0]), int(frame_hw[1])

        def side(extent: int, n: int) -> int:
            if n == 1:
                return extent
            raw = min(extent,
                      int(np.ceil(extent / (n - (n - 1) * overlap))))
            aligned = -(-raw // divisor) * divisor  # round up
            if aligned > extent:
                aligned = (extent // divisor) * divisor  # round down
            return aligned if aligned >= 1 else extent

        def starts(extent: int, tile: int, n: int) -> tuple[int, ...]:
            return tuple(
                int(round(v)) for v in np.linspace(0, extent - tile, n)
            )

        th, tw = side(fh, rows), side(fw, cols)
        return cls((fh, fw), (th, tw), starts(fh, th, rows),
                   starts(fw, tw, cols))

    @property
    def rows(self) -> int:
        return len(self.y_starts)

    @property
    def cols(self) -> int:
        return len(self.x_starts)

    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def origins(self) -> list[tuple[int, int]]:
        """Row-major ``(y0, x0)`` crop origins of every tile."""
        return [(y0, x0) for y0 in self.y_starts for x0 in self.x_starts]


def split_frames(x: np.ndarray, plan: TilePlan) -> np.ndarray:
    """Cut ``(N, C, H, W)`` frames into ``(N * T, C, th, tw)`` tiles.

    Tiles are frame-major (all of frame 0's tiles in row-major order,
    then frame 1's, ...), matching the ``(N, T, ...)`` reshape the merge
    step performs on the raw head output.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValueError(f"expected (N, C, H, W) frames, got {x.shape}")
    if tuple(x.shape[2:]) != tuple(plan.frame_hw):
        raise ValueError(
            f"frame shape {tuple(x.shape[2:])} does not match the plan's "
            f"{plan.frame_hw}"
        )
    th, tw = plan.tile_hw
    tiles = np.stack(
        [x[:, :, y0:y0 + th, x0:x0 + tw] for y0, x0 in plan.origins()],
        axis=1,
    )  # (N, T, C, th, tw)
    return np.ascontiguousarray(
        tiles.reshape(-1, x.shape[1], th, tw)
    )


class FrameTiler:
    """Stateless tiled-inference pipeline around a detector forward.

    Parameters
    ----------
    anchors:
        (K, 2) normalized anchors of the detector head (tile-local — a
        tile is just a small image to the detector).
    rows, cols:
        Tile grid.
    overlap:
        Requested overlap ratio between adjacent tiles in [0, 1).  An
        object up to ``overlap * tile`` wide is guaranteed to appear
        whole in at least one tile.
    conf_threshold / iou_threshold / max_detections:
        Decode threshold, global cross-tile NMS threshold, and the
        packed-output width (rows per frame).
    divisor:
        Tile sides are rounded up to a multiple of this — the
        detector's total downsampling stride (8 for SkyNet: two 2x2
        pools plus the stride-2 reorg).
    """

    def __init__(
        self,
        anchors: np.ndarray,
        rows: int,
        cols: int,
        overlap: float = 0.25,
        conf_threshold: float = 0.3,
        iou_threshold: float = 0.45,
        max_detections: int = DEFAULT_MAX_DETECTIONS,
        divisor: int = 8,
    ) -> None:
        if max_detections < 1:
            raise ValueError("max_detections must be >= 1")
        if not 0.0 <= conf_threshold <= 1.0:
            raise ValueError("conf_threshold must be in [0, 1]")
        if rows < 1 or cols < 1:
            raise ValueError(f"need >= 1 tile per axis, got {rows}x{cols}")
        if not 0.0 <= overlap < 1.0:
            raise ValueError(
                f"overlap ratio must be in [0, 1), got {overlap!r}"
            )
        self.anchors = np.asarray(anchors, dtype=np.float64)
        self.rows = rows
        self.cols = cols
        self.overlap = overlap
        self.conf_threshold = conf_threshold
        self.iou_threshold = iou_threshold
        self.max_detections = max_detections
        self.divisor = divisor
        self._plans: dict[tuple[int, int], TilePlan] = {}

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    @property
    def num_tiles(self) -> int:
        return self.rows * self.cols

    def plan_for(self, frame_hw: tuple[int, int]) -> TilePlan:
        """The (cached) :class:`TilePlan` for a frame shape."""
        key = (int(frame_hw[0]), int(frame_hw[1]))
        plan = self._plans.get(key)
        if plan is None:
            plan = TilePlan.grid(key, self.rows, self.cols, self.overlap,
                                 divisor=self.divisor)
            self._plans[key] = plan
        return plan

    def split(self, x: np.ndarray) -> tuple[np.ndarray, TilePlan]:
        """Frames ``(N, C, H, W)`` → one tile batch ``(N*T, C, th, tw)``."""
        x = np.asarray(x)
        if x.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) frames, got {x.shape}")
        plan = self.plan_for(x.shape[2:])
        return split_frames(x, plan), plan

    # ------------------------------------------------------------------ #
    # merge
    # ------------------------------------------------------------------ #
    def merge(
        self, raw: np.ndarray, num_frames: int, plan: TilePlan
    ) -> np.ndarray:
        """Per-tile head output → packed global detections.

        Parameters
        ----------
        raw:
            ``(N*T, K*5, gh, gw)`` raw predictions for the tile batch
            produced by :meth:`split`.
        num_frames:
            N — how many frames the tile batch came from.
        plan:
            The plan that produced the tile batch.

        Returns
        -------
        ``(N, max_detections, 5)`` float32 packed detections (global
        normalized cxcywh + score, padded with :data:`PAD_SCORE`).
        """
        t = plan.num_tiles
        if raw.shape[0] != num_frames * t:
            raise ValueError(
                f"raw batch {raw.shape[0]} != {num_frames} frames x "
                f"{t} tiles"
            )
        boxes, conf = decode_grid(raw, self.anchors)
        # (N, T, K, gh, gw, ...) → per-frame flat candidate lists.
        boxes = boxes.reshape(num_frames, t, -1, 4)
        conf = conf.reshape(num_frames, t, -1)

        fh, fw = plan.frame_hw
        th, tw = plan.tile_hw
        origins = plan.origins()
        # Tile-local normalized → global pixel affine, one row per tile.
        scale = np.array([tw, th, tw, th], dtype=np.float64)
        shift = np.array(
            [[x0, y0, 0.0, 0.0] for y0, x0 in origins], dtype=np.float64
        )  # (T, 4) — only the center translates; w/h just rescale

        packed = np.full(
            (num_frames, self.max_detections, 5), PAD_SCORE,
            dtype=np.float32,
        )
        packed[:, :, :4] = 0.0
        for i in range(num_frames):
            keep_mask = conf[i] >= self.conf_threshold  # (T, cand)
            if not keep_mask.any():
                continue
            tile_idx, cand_idx = np.nonzero(keep_mask)
            cand = boxes[i, tile_idx, cand_idx]  # (M, 4) tile-local
            # Remap into global pixel space and clip to the frame —
            # per-axis bounds because fw != fh in general.
            cand = cand * scale + shift[tile_idx]
            cand = xyxy_to_cxcywh(
                clip_boxes(cxcywh_to_xyxy(cand), lo=(0.0, 0.0),
                           hi=(float(fw), float(fh)))
            )
            scores = conf[i, tile_idx, cand_idx]
            kept = nms(cand, scores, self.iou_threshold,
                       self.max_detections)
            if kept.size == 0:
                continue
            norm = cand[kept] / np.array([fw, fh, fw, fh])
            packed[i, : kept.size, :4] = norm
            packed[i, : kept.size, 4] = scores[kept]
        return packed

    # ------------------------------------------------------------------ #
    # the runner the Session mounts
    # ------------------------------------------------------------------ #
    def wrap(self, forward):
        """Bind a raw-head forward into a full tiled runner.

        The returned callable maps ``(N, C, H, W)`` frames to packed
        ``(N, max_detections, 5)`` detections, running the *entire* tile
        fan-out as one batched forward call — the batch dimension seen
        by the engine is ``N * rows * cols``; it pickles if ``forward`` does.
        """
        return functools.partial(self.run, forward)

    def run(self, forward, x: np.ndarray) -> np.ndarray:
        """Split ``x``, run ``forward`` on the tile batch, and merge."""
        tiles, plan = self.split(x)
        with obs.span("detection/tiling", frames=x.shape[0],
                      tiles=plan.num_tiles, tile_batch=tiles.shape[0]):
            raw = forward(tiles)
            return self.merge(raw, x.shape[0], plan)


# --------------------------------------------------------------------- #
# packed-array consumers
# --------------------------------------------------------------------- #
def unpack_detections(packed: np.ndarray) -> list[list[Detection]]:
    """Packed ``(N, max_det, 5)`` → per-frame :class:`Detection` lists.

    Padding rows (``score == PAD_SCORE``) are dropped; order (highest
    score first, the NMS keep order) is preserved.
    """
    packed = np.asarray(packed)
    if packed.ndim == 2:
        packed = packed[None]
    if packed.ndim != 3 or packed.shape[-1] != 5:
        raise ValueError(
            f"expected (N, max_det, 5) packed detections, got "
            f"{packed.shape}"
        )
    results: list[list[Detection]] = []
    for rows in packed:
        valid = rows[rows[:, 4] >= 0.0]
        results.append(
            [Detection(np.asarray(r[:4], dtype=np.float64), float(r[4]))
             for r in valid]
        )
    return results


def top_boxes(packed: np.ndarray) -> np.ndarray:
    """Best global box per frame: packed ``(N, max_det, 5)`` → (N, 4).

    The single-object contract (:func:`repro.detection.head.best_box`)
    for tiled sessions; frames with no detection yield a zero box
    (IoU 0 against any ground truth — scored honestly, not hidden).
    """
    packed = np.asarray(packed)
    if packed.ndim == 2:
        packed = packed[None]
    out = np.zeros((packed.shape[0], 4), dtype=np.float64)
    for i, rows in enumerate(packed):
        if rows.shape[0] and rows[0, 4] >= 0.0:
            out[i] = rows[0, :4]
    return out
