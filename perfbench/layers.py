"""Which endotrack functions the traced run wraps, and the per-layer metrics.

Each function is wrapped under the module attribute its callers look it up
by: ``conv2d`` once per calling module (pipeline, attention, decoder), which
also splits its spans by caller; ``pose_compose`` in every module that calls
it.  Span names are ``<layer>.<function>[.<split>]``.
"""

from __future__ import annotations

import numpy as np

from endotrack import attention, decoder, files, metrics, pipeline, se3, tracker

from perfbench.tracing import Aggregate, Tracer

CONV_CALLERS = {"pipeline": pipeline, "attention": attention, "decoder": decoder}


def _conv_counts(caller: str):
    """Computed (not measured) flop and byte counts from the call's shapes."""
    flop_key, bytes_key = f"conv.{caller}.flop", f"conv.{caller}.bytes"

    def after(tr: Tracer, args, kwargs, out):
        x, w = args[0], args[1]
        b = args[2] if len(args) > 2 else kwargs.get("b")
        tr.counts[flop_key] += 2 * out.size * (w.size // w.shape[0])
        tr.counts[bytes_key] += x.nbytes + w.nbytes + out.nbytes + (b.nbytes if b is not None else 0)
    return after


def _saturated(out: np.ndarray) -> int:
    info = np.finfo(out.dtype)
    return int(np.count_nonzero(out <= info.tiny) + np.count_nonzero(out >= 1.0 - info.epsneg))


def _sigmoid_saturation(tr: Tracer, args, kwargs, out):
    kind = args[1] if len(args) > 1 else kwargs.get("kind")
    if kind == "sigmoid":
        tr.deferred.append(lambda: tr.counts.update(sigmoid_saturated=_saturated(out)))


def _file_bytes(tr: Tracer, args, kwargs, text):
    tr.deferred.append(lambda: tr.counts.update(file_bytes=len(text.encode())))


def wrap_targets(att_labels: dict) -> list[tuple]:
    """(owner, attribute, span name or naming function, after hook) per wrap.

    ``att_labels`` maps ``id(AttentionParams)`` to ``att1``/``att2`` so the
    two attention blocks get their own spans.
    """
    def att_name(args):
        return "attention.attention_forward." + att_labels.get(id(args[1]), "other")

    targets = [
        (pipeline, "pipeline_forward", "pipeline.pipeline_forward", None),
        (pipeline, "extract_scene", "pipeline.extract_scene", None),
        (pipeline, "extract_motion", "pipeline.extract_motion", None),
        (pipeline, "extract_joint", "pipeline.extract_joint", None),
        (pipeline, "fuse", "pipeline.fuse", None),
        (pipeline, "attention_forward", att_name, None),
        (pipeline, "concat_channels", "kernels.concat_channels", None),
        (attention, "permute", "kernels.permute", None),
        (attention, "pool_last_axis", "kernels.pool_last_axis", None),
        (decoder, "layernorm", "kernels.layernorm", None),
        (decoder, "affine", "kernels.affine", None),
        (decoder, "decoder_forward", "decoder.decoder_forward", None),
        (decoder, "dsc_block_forward", "decoder.dsc_block_forward", None),
        (decoder, "quat_normalize", "decoder.quat_normalize", None),
        (se3, "orthonormalize", "se3.orthonormalize", None),
        (tracker, "orthonormalize", "se3.orthonormalize", None),
        (se3, "rotmat_to_quat", "se3.rotmat_to_quat", None),
        (se3, "pose_from_vec", "se3.pose_from_vec", None),
        (files, "pose_from_vec", "se3.pose_from_vec", None),
        (tracker.Trajectory, "relatives", "tracker.Trajectory.relatives", None),
        (files, "format_trajectory", "files.format_trajectory", _file_bytes),
        (files, "parse_trajectory", "files.parse_trajectory", None),
        (metrics, "evaluate", "metrics.evaluate", None),
    ]
    for caller, module in CONV_CALLERS.items():
        targets.append((module, "conv2d", f"kernels.conv2d.{caller}", _conv_counts(caller)))
        targets.append((module, "activation", "kernels.activation", _sigmoid_saturation))
    for module in (se3, tracker, metrics):
        targets.append((module, "pose_compose", "se3.pose_compose", None))
    for fn in ("synth_trajectory", "perturb_relatives", "chain_absolute", "chain_rebased"):
        targets.append((tracker, fn, f"tracker.{fn}", None))
    for fn in ("ate", "ce", "de", "rte", "rot"):
        targets.append((metrics, fn, f"metrics.{fn}", None))
    return targets


def install(tracer: Tracer, att_labels: dict) -> None:
    for owner, attr, name, after in wrap_targets(att_labels):
        tracer.wrap(owner, attr, name, after)


def _per_layer_table() -> list[tuple]:
    """(metric name, unit, value from (aggregate, counts, steps)) in output order.

    Times and counts are per step: per frame on track-*, per pass on traj-10k.
    """
    def ms(span):
        return lambda a, c, n: 1e3 * a.total(span).incl_s / n

    def self_ms(span):
        return lambda a, c, n: 1e3 * a.total(span).self_s / n

    def calls(span):
        return lambda a, c, n: a.total(span).calls / n

    def us_per_call(span):
        return lambda a, c, n: 1e6 * a.total(span).incl_s / max(a.total(span).calls, 1)

    def count(key, scale=1.0):
        return lambda a, c, n: c[key] / n * scale

    rows = []
    for fn in ("extract_scene", "extract_motion", "extract_joint", "fuse"):
        span = f"pipeline.{fn}"
        rows += [(f"{span}.ms", "ms", ms(span)), (f"{span}.self_ms", "ms", self_ms(span)),
                 (f"{span}.calls", "count", calls(span))]
    rows.append(("pipeline.pipeline_forward.ms", "ms", ms("pipeline.pipeline_forward")))
    for span in ("attention.attention_forward", "attention.attention_forward.att1",
                 "attention.attention_forward.att2"):
        rows += [(f"{span}.ms", "ms", ms(span)), (f"{span}.self_ms", "ms", self_ms(span))]
    for fn in ("conv2d", "permute", "pool_last_axis", "activation", "layernorm",
               "concat_channels", "affine"):
        span = f"kernels.{fn}"
        rows += [(f"{span}.self_ms", "ms", self_ms(span)), (f"{span}.calls", "count", calls(span))]
    for caller in CONV_CALLERS:
        span = f"kernels.conv2d.{caller}"
        rows += [(f"{span}.self_ms", "ms", self_ms(span)),
                 (f"{span}.calls", "count", calls(span)),
                 (f"{span}.mflop", "Mflop", count(f"conv.{caller}.flop", 1e-6)),
                 (f"{span}.mb", "MB", count(f"conv.{caller}.bytes", 1e-6))]
    rows.append(("kernels.activation.sigmoid_saturated", "count", count("sigmoid_saturated")))
    for span in ("decoder.decoder_forward", "decoder.dsc_block_forward"):
        rows += [(f"{span}.ms", "ms", ms(span)), (f"{span}.self_ms", "ms", self_ms(span))]
    rows.append(("decoder.head.ms", "ms",
                 lambda a, c, n: 1e3 * (a.total("kernels.affine").incl_s
                                        + a.total("decoder.quat_normalize").incl_s) / n))
    rows += [
        ("se3.pose_compose.calls", "count", calls("se3.pose_compose")),
        ("se3.pose_compose.us_per_call", "us", us_per_call("se3.pose_compose")),
        ("se3.orthonormalize.calls", "count", calls("se3.orthonormalize")),
        ("se3.rotmat_to_quat.us_per_call", "us", us_per_call("se3.rotmat_to_quat")),
        ("se3.pose_from_vec.us_per_call", "us", us_per_call("se3.pose_from_vec")),
    ]
    for fn in ("synth_trajectory", "perturb_relatives", "chain_absolute", "chain_rebased"):
        rows.append((f"tracker.{fn}.ms", "ms", ms(f"tracker.{fn}")))
    rows += [("tracker.Trajectory.relatives.ms", "ms", ms("tracker.Trajectory.relatives")),
             ("tracker.Trajectory.relatives.calls", "count", calls("tracker.Trajectory.relatives")),
             ("metrics.evaluate.ms", "ms", ms("metrics.evaluate"))]
    for fn in ("ate", "ce", "de", "rte", "rot"):
        rows.append((f"metrics.{fn}.self_ms", "ms", self_ms(f"metrics.{fn}")))
    rows += [("files.format_trajectory.ms", "ms", ms("files.format_trajectory")),
             ("files.parse_trajectory.ms", "ms", ms("files.parse_trajectory")),
             ("files.bytes", "count", count("file_bytes"))]
    return rows


PER_LAYER = _per_layer_table()
# Reported beside PER_LAYER by the traced run; see bench.traced_run.
TRACE_ROWS = [("trace.untraced_step_ms_best", "ms"), ("trace.traced_step_ms_best", "ms"),
              ("trace.overhead_ms", "ms")]


def layer_metrics(agg: Aggregate, counts, steps: int) -> dict[str, dict]:
    return {name: {"value": fn(agg, counts, steps), "unit": unit} for name, unit, fn in PER_LAYER}
