"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the library's main workflows without writing code:

* ``train``    — train a SkyNet detector on synthetic DAC-SDC data.
* ``evaluate`` — evaluate a saved checkpoint on a fresh synthetic split.
* ``profile``  — layer/MAC/latency profile of any backbone on TX2+Ultra96.
* ``search``   — run the bottom-up design flow at a small budget.
* ``score``    — recompute the DAC-SDC'19 score tables (Eqs. 2-5).
* ``infer``    — timed batch inference via the eager or compiled engine.
* ``serve``    — dynamic-batching inference server under synthetic load.
* ``stream``   — N synthetic camera streams on one engine pool with
  drop-oldest backpressure, brownout, and event push.
* ``bench``    — perf-regression gate vs the checked-in BENCH baselines.
* ``dataset``  — generate and save a synthetic dataset archive.
* ``obs``      — render a JSONL trace written by ``--trace``.

``infer`` and ``serve`` share one option block (``_add_session_options``)
and both route through :class:`repro.runtime.Session`; ``serve`` adds
the scheduling flags of the dynamic-batching server.  ``train``,
``search``, ``infer`` and ``serve`` accept ``--trace PATH`` to record
spans and metrics (see :mod:`repro.obs`) for later inspection with
``repro obs``.
``infer``/``serve`` additionally take ``--metrics-port`` (a live
Prometheus ``/metrics`` + ``/health`` endpoint for the duration of the
run), ``--metrics-out`` (final exposition snapshot), and
``--chrome-trace`` (per-worker-lane trace for ``chrome://tracing``);
``profile --engine`` times a compiled plan kernel by kernel.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _parse_tiles(value: str | None) -> tuple[int, int] | None:
    """Parse a ``ROWSxCOLS`` grid spec (e.g. ``2x4``) or ``None``."""
    if value is None:
        return None
    parts = value.lower().replace("×", "x").split("x")
    try:
        rows, cols = (int(p) for p in parts)
    except ValueError:
        raise SystemExit(
            f"error: --tiles expects ROWSxCOLS (e.g. 2x4), got {value!r}"
        ) from None
    return rows, cols


def _add_session_options(p: argparse.ArgumentParser, images: int) -> None:
    """The option block shared by ``infer`` and ``serve``: the model,
    the session backend, tiling and telemetry."""
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint from `repro train`; a fresh random "
                        "SkyNet is used when omitted")
    p.add_argument("--engine", default="compiled",
                   choices=["eager", "compiled"],
                   help="forward backend (Session backend "
                        "'engine'/'eager')")
    p.add_argument("--quant-bits", default=None, metavar="W,F",
                   help="run the compiled engine in the integer domain "
                        "at these weight,feature-map bit widths (e.g. "
                        "8,8), calibrating scales on the input frames; "
                        "falls back down the quant -> engine -> eager "
                        "ladder if the model cannot be quantized")
    p.add_argument("--config", default="C", choices=["A", "B", "C"],
                   help="SkyNet config when no checkpoint is given")
    p.add_argument("--width", type=float, default=0.25,
                   help="width multiplier when no checkpoint is given")
    p.add_argument("--images", type=int, default=images)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tiles", default=None, metavar="ROWSxCOLS",
                   help="tiled high-resolution inference: split each "
                        "frame into this grid of overlapping tiles, run "
                        "all tiles as one engine batch, and merge "
                        "detections with a global cross-tile NMS (e.g. "
                        "2x4); frames are rendered at tile-native "
                        "resolution times the grid")
    p.add_argument("--tile-overlap", type=float, default=0.25,
                   metavar="F",
                   help="overlap ratio between adjacent tiles in "
                        "[0, 1); objects up to F*tile wide are "
                        "guaranteed whole in some tile")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record spans/metrics to a JSONL trace file")
    p.add_argument("--chrome-trace", default=None, metavar="PATH",
                   help="export the recorded spans/events as a Chrome "
                        "trace-event JSON (open at chrome://tracing or "
                        "Perfetto; one lane per worker thread); enables "
                        "recording even without --trace")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="serve GET /metrics (Prometheus text exposition) "
                        "and GET /health (JSON readiness) on this port "
                        "for the duration of the run (0 = OS-assigned; "
                        "enables recording)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the final /metrics exposition to this "
                        "file at shutdown (enables recording)")


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="SkyNet reproduction toolkit"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a SkyNet detector")
    p.add_argument("--config", default="C", choices=["A", "B", "C"])
    p.add_argument("--activation", default="relu6",
                   choices=["relu", "relu6"])
    p.add_argument("--width", type=float, default=0.25)
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--images", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="skynet.npz")
    p.add_argument("--checkpoint-dir", default=None,
                   help="write atomic, checksummed per-epoch checkpoints "
                        "here (full model/optimizer/RNG state)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest good checkpoint in "
                        "--checkpoint-dir (corrupt ones are skipped)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record spans/metrics to a JSONL trace file")

    p = sub.add_parser("evaluate", help="evaluate a saved checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--images", type=int, default=64)
    p.add_argument("--seed", type=int, default=99)
    p.add_argument("--quantize", default=None,
                   help="W,FM fixed-point bits, e.g. 11,9")

    p = sub.add_parser("profile", help="profile a backbone")
    p.add_argument("backbone")
    p.add_argument("--width", type=float, default=1.0)
    p.add_argument("--height", type=int, default=160)
    p.add_argument("--input-width", type=int, default=320)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--engine", action="store_true",
                   help="profile the *compiled engine* kernel by kernel "
                        "(measured wall time, FLOPs, GFLOP/s per step) "
                        "instead of the analytic TX2/Ultra96 models")
    p.add_argument("--quant-bits", default=None, metavar="W,F",
                   help="with --engine: also profile the integer-domain "
                        "plan at these weight,feature-map bit widths and "
                        "print the per-kernel fp32-vs-quant comparison")
    p.add_argument("--batch", type=int, default=1,
                   help="with --engine: input batch size")
    p.add_argument("--reps", type=int, default=10,
                   help="with --engine: timed forwards per profile")

    p = sub.add_parser("search", help="run the bottom-up design flow")
    p.add_argument("--images", type=int, default=96)
    p.add_argument("--particles", type=int, default=2)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record spans/metrics to a JSONL trace file")

    p = sub.add_parser("score", help="recompute the DAC-SDC'19 tables")
    p.add_argument("--track", default="both",
                   choices=["gpu", "fpga", "both"])

    p = sub.add_parser(
        "infer", help="run timed batch inference (eager or compiled engine)"
    )
    _add_session_options(p, images=32)

    p = sub.add_parser(
        "serve",
        help="run the dynamic-batching inference server under a "
             "synthetic concurrent load",
    )
    _add_session_options(p, images=64)
    p.add_argument("--batch-size", type=int, default=8,
                   help="dynamic batcher: flush at this many requests")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="dynamic batcher: flush after this wait window")
    p.add_argument("--workers", type=int, default=1,
                   help="server worker threads (one engine clone each)")
    p.add_argument("--worker-backend", default="thread",
                   choices=["thread", "process"],
                   help="'thread' keeps workers in-process (GIL-bound); "
                        "'process' gives each worker a child process "
                        "with its own engine and shared-memory tensor "
                        "transport")
    p.add_argument("--concurrency", type=int, default=8,
                   help="client threads submitting the load")

    p = sub.add_parser(
        "stream",
        help="run N synthetic camera streams against one shared engine "
             "pool: drop-oldest backpressure, overload brownout, "
             "supervised stream workers, JSONL event push",
    )
    p.add_argument("--streams", type=int, default=4,
                   help="concurrent synthetic streams")
    p.add_argument("--frames", type=int, default=64,
                   help="frames per stream")
    p.add_argument("--config", default="C", choices=["A", "B", "C"],
                   help="SkyNet config of the shared detector")
    p.add_argument("--width", type=float, default=0.25,
                   help="width multiplier of the shared detector")
    p.add_argument("--batch-size", type=int, default=8,
                   help="engine pool: dynamic batcher flush size")
    p.add_argument("--workers", type=int, default=1,
                   help="engine pool worker threads")
    p.add_argument("--fps", type=float, default=0.0,
                   help="pace each camera at this frame rate "
                        "(0 = as fast as possible)")
    p.add_argument("--events", default=None, metavar="PATH",
                   help="publish detection/track events to this JSONL "
                        "file (the MQTT stand-in)")
    p.add_argument("--chaos", action="store_true",
                   help="arm seeded faults: 1%% sink stalls plus one "
                        "stream-worker crash, proving supervised "
                        "recovery and exact frame accounting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="record spans/metrics to a JSONL trace file")

    p = sub.add_parser(
        "bench",
        help="perf-regression gate: re-measure the engine/quant speedup "
             "ratios and compare against the checked-in BENCH_*.json "
             "baselines",
    )
    p.add_argument("--check", action="store_true",
                   help="exit nonzero when a fresh ratio falls below its "
                        "baseline's noise floor (without --check the "
                        "verdicts are reported but the exit code is 0)")
    p.add_argument("--root", default=".",
                   help="directory holding the BENCH_*.json baselines")
    p.add_argument("--reps", type=int, default=3,
                   help="timed forwards per arm (best-of-reps)")
    p.add_argument("--gate-tolerance", type=float, default=1.0,
                   metavar="SCALE",
                   help="scale every metric's noise tolerance (raise on "
                        "noisy shared-core CI hosts)")
    p.add_argument("--inject-regression", type=float, default=None,
                   metavar="FACTOR",
                   help="multiply the fresh measurements by FACTOR to "
                        "self-test the gate (0.5 must trip it)")
    p.add_argument("--json", default=None, metavar="PATH", dest="json_out",
                   help="also write the verdicts as JSON")

    p = sub.add_parser("obs", help="render a saved JSONL trace")
    p.add_argument("trace", help="trace file written by --trace")
    p.add_argument("--max-depth", type=int, default=None,
                   help="limit the span-tree depth")
    p.add_argument("--chrome", default=None, metavar="OUT",
                   help="also convert the trace to a Chrome trace-event "
                        "JSON file")

    p = sub.add_parser("dataset", help="generate a synthetic dataset")
    p.add_argument("--kind", default="dacsdc",
                   choices=["dacsdc", "got10k", "youtubevos"])
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="dataset.npz")

    return parser


# --------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------- #
def _maybe_recording(path: str | None):
    """``obs.recording(path)`` when tracing, else a do-nothing context."""
    from contextlib import nullcontext

    from . import obs

    return obs.recording(path) if path else nullcontext()


def _cmd_train(args) -> int:
    from .core import SkyNetBackbone
    from .datasets import make_dacsdc_splits
    from .detection import DetectionTrainer, Detector, TrainConfig, YoloHead
    from .detection.anchors import kmeans_anchors
    from .nn import save_model

    train, val = make_dacsdc_splits(
        args.images, max(8, args.images // 5), image_hw=(48, 96),
        seed=args.seed,
    )
    anchors = kmeans_anchors(train.boxes[:, 2:4], k=2,
                             rng=np.random.default_rng(args.seed))
    backbone = SkyNetBackbone(args.config, activation=args.activation,
                              width_mult=args.width,
                              rng=np.random.default_rng(args.seed))
    detector = Detector(
        backbone,
        head=YoloHead(backbone.out_channels, anchors,
                      rng=np.random.default_rng(args.seed + 1)),
    )
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir")
        return 2
    with _maybe_recording(args.trace):
        result = DetectionTrainer(
            detector,
            TrainConfig(epochs=args.epochs, batch_size=16, seed=args.seed,
                        checkpoint_dir=args.checkpoint_dir,
                        resume=args.resume),
        ).fit(train, val)
    if args.trace:
        print(f"trace written to {args.trace}")
    save_model(detector, args.out)
    meta = {
        "config": args.config,
        "activation": args.activation,
        "width": args.width,
        "anchors": anchors.tolist(),
        "final_iou": result.final_iou,
    }
    with open(args.out + ".json", "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"final IoU {result.final_iou:.3f}; saved {args.out} (+ .json)")
    return 0


def _load_checkpoint(path: str):
    from .core import SkyNetBackbone
    from .detection import Detector, YoloHead
    from .nn import load_model

    with open(path + ".json") as fh:
        meta = json.load(fh)
    backbone = SkyNetBackbone(meta["config"], activation=meta["activation"],
                              width_mult=meta["width"])
    detector = Detector(
        backbone, head=YoloHead(backbone.out_channels,
                                np.asarray(meta["anchors"]))
    )
    load_model(detector, path)
    return detector, meta


def _cmd_evaluate(args) -> int:
    from .datasets import make_dacsdc
    from .detection.metrics import evaluate_detector
    from .hardware.quantization import quantized_inference

    detector, meta = _load_checkpoint(args.checkpoint)
    val = make_dacsdc(args.images, image_hw=(48, 96), seed=args.seed)
    if args.quantize:
        w_bits, fm_bits = (int(v) for v in args.quantize.split(","))
        with quantized_inference(detector, w_bits, fm_bits):
            iou = evaluate_detector(detector, val.images, val.boxes)
        print(f"IoU (W{w_bits}/FM{fm_bits}): {iou:.3f}")
    else:
        iou = evaluate_detector(detector, val.images, val.boxes)
        print(f"IoU (fp32): {iou:.3f}")
    return 0


def _cmd_profile_engine(args) -> int:
    """``repro profile <net> --engine``: measured per-kernel profile of
    the compiled plan, optionally side by side with the quantized one."""
    from .nn.engine import QuantConfig, compile_net
    from .obs import render_comparison
    from .zoo import build_backbone

    backbone = build_backbone(args.backbone, width_mult=args.width)
    backbone.eval()
    x = np.random.default_rng(0).normal(
        0, 1, (args.batch, 3, args.height, args.input_width)
    ).astype(np.float32)
    net = compile_net(backbone)
    profile = net.profile(x, reps=args.reps)
    print(profile.render())
    if args.quant_bits:
        parsed = QuantConfig.parse(args.quant_bits)
        qnet = compile_net(backbone, quant=parsed, calibration=x)
        qprofile = qnet.profile(x, reps=args.reps)
        print()
        print(qprofile.render())
        print()
        print(render_comparison(profile, qprofile))
    return 0


def _cmd_profile(args) -> int:
    from .hardware.descriptor import describe
    from .hardware.fpga import FpgaLatencyModel
    from .hardware.gpu import GpuLatencyModel
    from .hardware.spec import TX2, ULTRA96
    from .zoo import build_backbone

    if args.engine:
        return _cmd_profile_engine(args)
    backbone = build_backbone(args.backbone, width_mult=args.width)
    hw = (args.height, args.input_width)
    desc = describe(backbone, hw)
    print(f"{args.backbone} @ {hw[0]}x{hw[1]} (width_mult={args.width})")
    print(f"  params: {desc.total_params / 1e6:.3f} M "
          f"({desc.total_params * 4 / 1e6:.2f} MB fp32)")
    print(f"  MACs:   {desc.gmacs:.3f} G")
    tx2 = GpuLatencyModel(TX2, batch=1).per_frame_latency_ms(desc)
    u96 = FpgaLatencyModel(ULTRA96, batch=1).per_frame_latency_ms(desc)
    print(f"  TX2:    {tx2:.2f} ms/frame ({1e3 / tx2:.1f} FPS)")
    print(f"  Ultra96:{u96:.2f} ms/frame ({1e3 / u96:.1f} FPS)")
    if args.verbose:
        print(desc.summary())
    return 0


def _cmd_search(args) -> int:
    from .core import BUNDLE_CATALOG, BottomUpFlow, FlowConfig, PSOConfig
    from .datasets import make_dacsdc_splits

    train, val = make_dacsdc_splits(args.images, max(8, args.images // 4),
                                    image_hw=(32, 64), seed=args.seed)
    flow = BottomUpFlow(
        train, val,
        config=FlowConfig(
            sketch_channels=(8, 16, 24, 32),
            sketch_epochs=1,
            max_selected_bundles=2,
            pso=PSOConfig(particles_per_group=args.particles,
                          iterations=args.iterations, epochs_base=1,
                          depth=5, n_pools=3),
            final_epochs=4,
        ),
        catalog=BUNDLE_CATALOG[:4],
    )
    with _maybe_recording(args.trace):
        result = flow.run(np.random.default_rng(args.seed))
    if args.trace:
        print(f"trace written to {args.trace}")
    dna = result.final_dna
    print(f"winner: bundle={dna.bundle.name} channels={dna.channels} "
          f"pools={dna.pool_positions}")
    print(f"stage-3: bypass={dna.bypass} activation={dna.activation}")
    print(f"final IoU: {result.final_iou:.3f}")
    return 0


def _serve_load(session, frames, args) -> int:
    """Push ``frames`` through the dynamic-batching server from
    ``args.concurrency`` client threads and report scheduling stats.

    An untimed warm-up wave of ``workers x batch_size`` requests runs
    first, so every server worker has built its runner (for the process
    backend: spawned its child) before the clock starts; the printed
    counters are those of the timed load alone."""
    import threading
    import time

    from .serve import ServerStats

    warm_up = [session.submit(frames[i % len(frames)])
               for i in range(args.workers * args.batch_size)]
    for future in warm_up:
        future.result(timeout=120.0)
    before = session.server.stats.snapshot()
    pool = session.health().get("procpool")
    if pool is not None:
        print(f"  pool: {pool['spawned']} children spawned before the "
              "timed load")

    futures = [None] * len(frames)

    def client(worker: int) -> None:
        for i in range(worker, len(frames), args.concurrency):
            futures[i] = session.submit(frames[i])

    t0 = time.perf_counter()
    clients = [threading.Thread(target=client, args=(w,), daemon=True)
               for w in range(args.concurrency)]
    for t in clients:
        t.start()
    for t in clients:
        t.join()
    results = [f.result(timeout=30.0) for f in futures]
    wall = time.perf_counter() - t0

    after = session.server.stats.snapshot()
    stats = {k: after[k] - before[k] for k in ServerStats.FIELDS}
    mean_batch = (stats["batched_requests"] / stats["batches"]
                  if stats["batches"] else 0.0)
    ok = sum(1 for r in results if r.ok)
    print(f"served {len(results)} requests in {wall * 1e3:.1f} ms "
          f"({len(results) / wall:.1f} req/s, "
          f"{args.concurrency} clients, {args.workers} workers)")
    print(f"  ok {ok}  shed {stats['shed']}  timeouts {stats['timeouts']}  "
          f"errors {stats['errors']}")
    print(f"  batches {stats['batches']}  "
          f"mean batch {mean_batch:.2f}  "
          f"(flush at {args.batch_size} or {args.max_wait_ms} ms)")
    lat = [r.latency_ms for r in results if r.ok]
    if lat:
        print(f"  latency p50 {np.percentile(lat, 50):.1f} ms  "
              f"p95 {np.percentile(lat, 95):.1f} ms")
    health = session.health()
    breaker = health.get("breaker")
    print(f"  health {health['status']}  workers "
          f"{health['workers_alive']}/{health['workers_total']}  "
          f"retries {stats['retries']}  respawns {stats['respawns']}"
          + (f"  breaker {breaker['state']}" if breaker else ""))
    return 0


def _cmd_infer(args) -> int:
    import time

    from .core import SkyNetBackbone
    from .datasets import make_dacsdc
    from .detection import Detector
    from .runtime import ServeConfig, Session, SessionConfig

    if args.checkpoint:
        detector, _ = _load_checkpoint(args.checkpoint)
    else:
        detector = Detector(SkyNetBackbone(
            args.config, width_mult=args.width,
            rng=np.random.default_rng(args.seed),
        ))
    detector.eval()
    tiles = _parse_tiles(args.tiles)
    # Tiled runs get frames at tile-native resolution times the grid,
    # so each tile lands at the detector's usual input size.
    image_hw = ((48 * tiles[0], 96 * tiles[1]) if tiles is not None
                else (48, 96))
    ds = make_dacsdc(args.images, image_hw=image_hw, seed=args.seed)

    backend = "engine" if args.engine == "compiled" else "eager"
    quant_bits = (8, 8)
    if args.quant_bits:
        from .nn.engine import QuantConfig

        parsed = QuantConfig.parse(args.quant_bits)
        backend, quant_bits = "quant", (parsed.w_bits, parsed.fm_bits)
    config = SessionConfig(backend=backend, quant_bits=quant_bits,
                           tiles=tiles, tile_overlap=args.tile_overlap)
    serving = args.command == "serve"
    serve_cfg = ServeConfig(
        max_batch_size=args.batch_size,
        max_wait_ms=args.max_wait_ms,
        num_workers=args.workers,
        worker_backend=args.worker_backend,
    ) if serving else None
    mean = np.float32(0.5)
    frames = [ds.images[i] for i in range(len(ds.images))]

    # Calibration batch for the quant backend: the same preprocessing
    # the session will see at run time.
    calibration = (np.stack([f - mean for f in frames[:8]])
                   if backend == "quant" else None)

    from contextlib import nullcontext

    from . import obs

    telemetry = bool(args.trace or args.chrome_trace or args.metrics_out
                     or args.metrics_port is not None)
    holder: dict = {}  # the HTTP health endpoint outlives session load
    http = None
    with (obs.recording(args.trace) if telemetry else nullcontext()) as rec:
        if args.metrics_port is not None:
            http = obs.MetricsHTTPServer(
                rec.metrics.records,
                health_fn=lambda: (holder["session"].health()
                                   if "session" in holder
                                   else {"status": "loading"}),
                port=args.metrics_port,
            ).start()
            print(f"metrics: {http.url}/metrics  health: {http.url}/health")
        t0 = time.perf_counter()
        session = Session.load(detector, config, serve=serve_cfg,
                               calibration=calibration)
        holder["session"] = session
        load_ms = (time.perf_counter() - t0) * 1e3
        print(f"session({session.name}) backend={session.backend} "
              f"loaded in {load_ms:.1f} ms")
        session.run(frames[0] - mean)  # warm up buffers / BLAS
        try:
            if serving:
                _serve_load(session, [f - mean for f in frames], args)
            else:
                outs = []
                t0 = time.perf_counter()
                for frame in frames:
                    outs.append(session.run(frame - mean))
                wall = time.perf_counter() - t0
                print(f"{args.engine}: {len(frames)} frames in "
                      f"{wall * 1e3:.1f} ms ({len(frames) / wall:.1f} FPS)")
                if tiles is not None:
                    from .detection.tiling import unpack_detections

                    counts = [len(d)
                              for d in unpack_detections(np.stack(outs))]
                    print(f"tiled {tiles[0]}x{tiles[1]} "
                          f"(overlap {args.tile_overlap:g}, "
                          f"{tiles[0] * tiles[1]} tiles/frame as one "
                          f"batch): {float(np.mean(counts)):.1f} "
                          f"detections/frame after global NMS")
        finally:
            session.close()
            if args.metrics_out and rec is not None:
                with open(args.metrics_out, "w") as fh:
                    fh.write(obs.prometheus_text(rec.metrics.records()))
                print(f"metrics exposition written to {args.metrics_out}")
            if http is not None:
                http.stop()
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.chrome_trace and rec is not None:
        obs.export_chrome_trace(rec.records(), args.chrome_trace)
        print(f"chrome trace written to {args.chrome_trace} "
              "(open at chrome://tracing)")
    return 0


def _cmd_stream(args) -> int:
    import time
    from contextlib import nullcontext

    from .core import SkyNetBackbone
    from .detection import Detector
    from .resilience import faults
    from .runtime import ServeConfig, Session, SessionConfig
    from .serve import JsonlSink, SyntheticSource
    from .utils import format_table

    detector = Detector(SkyNetBackbone(
        args.config, width_mult=args.width,
        rng=np.random.default_rng(args.seed),
    ))
    detector.eval()
    interval_ms = 1e3 / args.fps if args.fps > 0 else 0.0
    sources = [
        SyntheticSource(frames=args.frames, image_hw=(32, 64),
                        seed=args.seed + i, interval_ms=interval_ms)
        for i in range(args.streams)
    ]
    sink = JsonlSink(args.events) if args.events else None
    serve_cfg = ServeConfig(max_batch_size=args.batch_size,
                            num_workers=args.workers)
    plan = None
    if args.chaos:
        plan = faults.FaultPlan([
            faults.FaultSpec("stream.sink", "stall", rate=0.01,
                             times=None, delay_s=0.02),
            faults.FaultSpec("stream.worker", "crash", after=5, times=1),
        ], seed=args.seed)

    with _maybe_recording(args.trace), \
            Session.load(detector, SessionConfig(),
                         serve=serve_cfg) as session:
        t0 = time.perf_counter()
        with (faults.inject(plan) if plan else nullcontext()):
            manager = session.open_streams(sources, sink=sink)
            done = manager.join(timeout=max(60.0, args.frames * 2.0))
        wall = time.perf_counter() - t0
        health = manager.health()
        manager.stop()
    if args.trace:
        print(f"trace written to {args.trace}")

    rows = []
    for snap in health["streams"]:
        rows.append([
            snap["stream"], snap["accepted"], snap["processed"],
            snap["dropped_by_policy"], snap["worker_restarts"],
            snap["sink_events"], f"{snap['put_block_ms_max']:.3f}",
        ])
    print(format_table(
        ["stream", "accepted", "processed", "dropped", "restarts",
         "events", "max put ms"], rows,
        title=f"{args.streams} streams x {args.frames} frames in "
              f"{wall:.1f} s",
    ))
    acct = health["accounting"]
    brownout = (manager.controller.max_level_seen
                if manager.controller is not None else 0)
    print(f"accounting {'exact' if acct['exact'] else 'INCONSISTENT'}: "
          f"accepted {acct['accepted']} = processed {acct['processed']} "
          f"+ dropped {acct['dropped_by_policy']} "
          f"(drop ratio {acct['drop_ratio']:.3f})")
    print(f"brownout: level {health['brownout_level']} now, "
          f"peak {brownout}")
    if plan is not None:
        print(f"chaos: {plan.fired()} faults fired "
              f"({plan.fired('stream.sink')} sink stalls, "
              f"{plan.fired('stream.worker')} worker crashes)")
    if args.events:
        print(f"events written to {args.events}")
    status = "ok" if (done and acct["exact"]) else "FAILED"
    print(f"stream health {status}")
    return 0 if status == "ok" else 1


def _cmd_bench(args) -> int:
    from .obs.bench import run_gate

    code = run_gate(
        root=args.root,
        reps=args.reps,
        tolerance_scale=args.gate_tolerance,
        inject_regression=args.inject_regression,
        out_json=args.json_out,
    )
    if code == 1 and not args.check:
        print("(reporting only; rerun with --check to fail on regression)")
        return 0
    return code


def _cmd_obs(args) -> int:
    from .obs import export_chrome_trace, load_trace, render_trace

    records = load_trace(args.trace)
    print(render_trace(records, max_depth=args.max_depth))
    if args.chrome:
        export_chrome_trace(records, args.chrome)
        print(f"chrome trace written to {args.chrome}")
    return 0


def _cmd_score(args) -> int:
    from .contest import (FPGA_2019, FPGA_TRACK, GPU_2019, GPU_TRACK,
                          score_entries)
    from .contest.scoring import implied_field_energy
    from .utils import format_table

    tracks = []
    if args.track in ("gpu", "both"):
        tracks.append(("GPU (Table 5)", list(GPU_2019), GPU_TRACK))
    if args.track in ("fpga", "both"):
        tracks.append(("FPGA (Table 6)", list(FPGA_2019), FPGA_TRACK))
    for title, field, cfg in tracks:
        e_bar = implied_field_energy(field, cfg)
        scored = score_entries([e.as_dict() for e in field], cfg,
                               field_energy=e_bar)
        print(format_table(
            ["team", "IoU", "FPS", "Power(W)", "Total score"],
            [[s.name, f"{s.iou:.3f}", f"{s.fps:.2f}", f"{s.power_w:.2f}",
              f"{s.total_score:.3f}"] for s in scored],
            title=title,
        ))
        print()
    return 0


def _cmd_dataset(args) -> int:
    from .datasets import make_dacsdc, make_got10k, make_youtubevos
    from .datasets.io import save_detection_dataset, save_tracking_dataset

    if args.kind == "dacsdc":
        ds = make_dacsdc(args.n, image_hw=(48, 96), seed=args.seed)
        save_detection_dataset(ds, args.out)
        print(f"saved {len(ds)} detection images to {args.out}")
    else:
        maker = make_got10k if args.kind == "got10k" else make_youtubevos
        ds = maker(args.n, seq_len=10, image_hw=(64, 64), seed=args.seed)
        save_tracking_dataset(ds, args.out)
        print(f"saved {len(ds)} sequences ({ds.total_frames()} frames) "
              f"to {args.out}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "profile": _cmd_profile,
    "search": _cmd_search,
    "score": _cmd_score,
    "infer": _cmd_infer,
    "serve": _cmd_infer,
    "stream": _cmd_stream,
    "bench": _cmd_bench,
    "dataset": _cmd_dataset,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
