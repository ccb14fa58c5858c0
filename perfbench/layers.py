"""Which ibimpute functions the traced run wraps, and the per-layer metrics.

The modules of ``src/ibimpute`` are the layers.  Every span is named
``<layer>.<what>``; a per-layer time metric sums the self times of its
spans.  Functions that are not wrapped (elementwise autodiff ops, window
stacking, normalization) count toward the self time of their caller, which
is why ``model.encode_taped_s`` excludes the matmuls inside the encoder
(those are ``autodiff.matmul_s``) and ``autodiff.backward_s`` excludes the
matmul gradients (also ``autodiff.matmul_s``).
"""

from __future__ import annotations

import sys

from spans import Span, Target

ROOT_CALL = "bench.call"
ROOT_SETUP = "bench.setup"


def _autodiff():
    return sys.modules["ibimpute.autodiff"]


def _encode_name(args, kwargs) -> str:
    taped = _autodiff()._ACTIVE is not None
    return "model.encode_taped" if taped else "model.encode_untaped"


def _mask_name(args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"data.apply_mask_{spec.pattern}"


def _matmul_flops(args, kwargs, out) -> float:
    return 2.0 * out.data.size * args[0].shape[-1]


def _time_matmul_backward(tracer, args, out) -> None:
    """Time the gradient of the matmul just recorded, under the same span name.

    The gradient closure is created inside ``autodiff.matmul`` and stored on
    the tape node; it computes two products of the forward's size.
    """
    tape = _autodiff()._ACTIVE
    if tape is None or not tape.nodes or tape.nodes[-1].out is not out:
        return
    node = tape.nodes[-1]
    flops = 2.0 * _matmul_flops(args, {}, out)
    backward = node.backward
    node.backward = lambda g: tracer.timed(
        "autodiff.matmul", backward, g, work=lambda *_: flops
    )


TARGETS = [
    Target("autodiff", "Tape.backward", "autodiff.backward",
           work=lambda args, kwargs, out: float(len(args[0].nodes))),
    Target("autodiff", "matmul", "autodiff.matmul",
           work=_matmul_flops, after=_time_matmul_backward),
    Target("training", "fit", "training.fit"),
    Target("training", "train_step", "training.train_step",
           work=lambda args, kwargs, out: 0.0 if out[1] else 1.0),
    Target("training", "Adam.step", "training.adam"),
    Target("training", "clip_gradients", "training.clip"),
    Target("training", "validation_mae", "training.validation"),
    Target("model", "ImputationModel.encode", _encode_name),
    Target("model", "ImputationModel.decode", "model.decode"),
    Target("model", "ImputationModel.impute", "model.impute"),
    Target("model", "reparameterize", "model.reparameterize"),
    Target("model", "save_checkpoint", "model.save_checkpoint"),
    Target("model", "load_checkpoint", "model.load_checkpoint"),
    Target("losses", "reg_loss", "losses.reg"),
    Target("losses", "loc_loss", "losses.loc"),
    Target("losses", "cosine_align_loss", "losses.glo"),
    Target("losses", "infonce_loss", "losses.glo"),
    Target("data", "apply_mask", _mask_name),
    Target("data", "load_csv", "data.load_csv"),
    Target("data", "make_synthetic", "data.make_synthetic"),
    Target("data", "make_windows", "data.make_windows"),
    Target("data", "fit_normalizer", "data.fit_normalizer"),
    Target("rng", "SplitMix64.permutation", "rng.permutation"),
    Target("rng", "SplitMix64.normals", "rng.normals"),
    Target("evaluation", "masked_error_sums", "evaluation.masked_error_sums"),
    Target("evaluation", "alignment_score", "evaluation.alignment_score"),
    Target("cli", "main", "cli.main"),
    Target("config", "RunConfig.from_sources", "config.from_sources"),
    Target("config", "RunConfig.load_dataset", "config.load_dataset"),
]

# metric -> span names whose self times it sums, per measured call
TIME_METRICS = {
    "autodiff.backward_s": ("autodiff.backward",),
    "autodiff.matmul_s": ("autodiff.matmul",),
    "training.fit_self_s": ("training.fit",),
    "training.train_step_self_s": ("training.train_step",),
    "training.adam_s": ("training.adam",),
    "training.clip_s": ("training.clip",),
    "training.validation_s": ("training.validation",),
    "model.encode_taped_s": ("model.encode_taped",),
    "model.encode_untaped_s": ("model.encode_untaped",),
    "model.decode_s": ("model.decode",),
    "model.reparameterize_s": ("model.reparameterize",),
    "model.impute_s": ("model.impute",),
    "model.save_checkpoint_s": ("model.save_checkpoint",),
    "model.load_checkpoint_s": ("model.load_checkpoint",),
    "losses.reg_s": ("losses.reg",),
    "losses.loc_s": ("losses.loc",),
    "losses.glo_s": ("losses.glo",),
    "data.apply_mask_point_s": ("data.apply_mask_point",),
    "data.apply_mask_block_s": ("data.apply_mask_block",),
    "data.load_csv_s": ("data.load_csv",),
    "data.make_windows_s": ("data.make_windows",),
    "data.fit_normalizer_s": ("data.fit_normalizer",),
    "rng.permutation_s": ("rng.permutation",),
    "rng.normals_s": ("rng.normals",),
    "evaluation.masked_error_sums_s": ("evaluation.masked_error_sums",),
    "evaluation.alignment_score_s": ("evaluation.alignment_score",),
    "cli.self_s": ("cli.main",),
    "config.self_s": ("config.from_sources", "config.load_dataset"),
    "bench.self_s": (ROOT_CALL,),
}

# metric -> span names counted per measured call; exact integers
COUNT_METRICS = {
    "training.steps": ("training.train_step",),
    "data.apply_mask_calls": ("data.apply_mask_point", "data.apply_mask_block"),
    "model.impute_calls": ("model.impute",),
}

# the input series are made only in set-up, so this one is per set-up
SETUP_TIME_METRICS = {"data.make_synthetic_s": ("data.make_synthetic",)}

PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "training.skipped_steps": "count",
    "autodiff.nodes_per_step": "count",
    "autodiff.matmul_gflop": "GFLOP",
    **{name: "s" for name in SETUP_TIME_METRICS},
    "trace.overhead_s": "s",
}


def totals(spans: list[Span], own: list[float]) -> dict[str, list[float]]:
    """Span name -> [summed self time, number of spans, summed work]."""
    out: dict[str, list[float]] = {}
    for span, t in zip(spans, own):
        row = out.setdefault(span.name, [0.0, 0, 0.0])
        row[0] += t
        row[1] += 1
        row[2] += span.work
    return out


def per_layer(calls: dict, n_calls: int, ref: dict, n_ref: int, setup: dict) -> dict:
    """Per-layer metrics from span totals.

    ``calls`` covers every traced call and gives the times, per call.
    ``ref`` covers the first traced call of each input and gives the counts,
    per call, so they do not depend on how many calls fit in the run.
    ``setup`` covers one traced set-up.
    """
    def get(table, name, i):
        return table.get(name, (0.0, 0, 0.0))[i]

    out = {
        metric: sum(get(calls, n, 0) for n in names) / n_calls
        for metric, names in TIME_METRICS.items()
    }
    out.update({
        metric: sum(get(ref, n, 1) for n in names) / n_ref
        for metric, names in COUNT_METRICS.items()
    })
    steps = get(ref, "training.train_step", 1)
    out["training.skipped_steps"] = get(ref, "training.train_step", 2) / n_ref
    out["autodiff.nodes_per_step"] = get(ref, "autodiff.backward", 2) / steps if steps else 0.0
    out["autodiff.matmul_gflop"] = get(ref, "autodiff.matmul", 2) / 1e9 / n_ref
    out.update({
        metric: sum(get(setup, n, 0) for n in names)
        for metric, names in SETUP_TIME_METRICS.items()
    })
    return out
