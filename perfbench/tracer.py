"""Span tracer that measures avmae's layers from outside the package.

The tracer wraps instance methods of a model's blocks, found by module path
(``video_encoder.layers.0.attn_local``), and module-level functions of the
``avmae`` package, found by identity in every ``avmae.*`` module that
imports them. Each wrapped call records one span ``[name, start, end,
parent, op]`` in memory. ``uninstall`` deletes every wrapper, so code run
after it is the unmodified package. Spans are written out at the end of a
run; self time is a span's duration minus the time its child spans cover.

Counts that the program does not report itself (matmul FLOP, score-matrix
entries, size groups, truncated-normal redraws) are computed from the shapes
of the arguments the wrappers see; they are labelled as computed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# Block class name -> the methods the tracer wraps on its instances.
_FWD_BWD = ("forward", "backward")
WRAPPED_METHODS = {
    "Attention": _FWD_BWD,
    "LayerNorm": _FWD_BWD,
    "FeedForward": _FWD_BWD,
    "ConvBNPReLU": _FWD_BWD,
    "LGILayer": _FWD_BWD,
    "VideoEmbed": _FWD_BWD,
    "AudioEmbed": _FWD_BWD,
    "FusionEncoder": _FWD_BWD,
    "Decoder": _FWD_BWD,
    "DiERUnit": _FWD_BWD,
    "RefinementLayer": ("refine", "refine_backward"),
    "HAFELayer": _FWD_BWD,
    "IAVCLHead": _FWD_BWD,
    "PretrainModel": ("forward_sample", "backward_sample", "zero_grad"),
    "FinetuneModel": ("forward_sample", "backward_sample", "predict", "zero_grad"),
}

# Inclusive-time metric per (class, direction); direction is fwd or bwd.
_BLOCK_METRIC = {
    "Attention": "blocks.attention",
    "LayerNorm": "blocks.layernorm",
    "FeedForward": "blocks.feedforward",
    "ConvBNPReLU": "blocks.convbnprelu",
    "VideoEmbed": "embedding.embed",
    "AudioEmbed": "embedding.embed",
    "FusionEncoder": "pretrain.fusion",
    "Decoder": "pretrain.decoder",
    "DiERUnit": "iavcl.dier",
    "RefinementLayer": "iavcl.refine",
    "HAFELayer": "iavcl.hafe",
}
_CALL_METRIC = {
    "Attention": "blocks.attention.calls",
    "LayerNorm": "blocks.layernorm.calls",
    "LGILayer": "encoder.layer.calls",
}
_SELF_METRIC = {
    "LGILayer": "encoder.layer.self_ms",
    "IAVCLHead": "iavcl.head.self_ms",
    "PretrainModel": "pretrain.model.self_ms",
    "FinetuneModel": "finetune.model.self_ms",
}
# Children of an LGILayer, by attribute name -> the stage they belong to.
_LGI_STAGE = {
    "norm1": 1, "attn_local": 1,
    "norm2": 2, "attn_region": 2,
    "norm3_q": 3, "norm3_kv": 3, "cross_local": 3,
    "norm4_q": 4, "norm4_kv": 4, "cross_region": 4,
    "norm_ffn": "ffn", "ffn": "ffn",
}

# Module-level functions: (defining module, name) -> (inclusive, self, calls).
FUNCTIONS = {
    ("avmae.training", "pretrain_step"): ((), ("training.step.self_ms",), ()),
    ("avmae.training", "supervised_step"): ((), ("training.step.self_ms",), ()),
    ("avmae.encoder", "partition"): (("encoder.partition_ms",), (), ()),
    ("avmae.pretrain", "make_mask_pairs"): (("masking.masks_ms",), (), ()),
    ("avmae.masking", "assemble_combined"): (("masking.assemble_ms",), (), ()),
    ("avmae.losses", "masked_mse"): (("losses.masked_mse_ms",), (), ()),
    ("avmae.losses", "info_nce"): (("losses.info_nce_ms",), (), ()),
    ("avmae.losses", "cross_entropy_ls"): (("losses.cross_entropy_ms",), (), ()),
    ("avmae.embedding", "normalize_targets"): (("embedding.targets_ms",), (), ()),
    ("avmae.embedding", "positional_encoding"): (
        ("embedding.posenc_ms",), (), ("embedding.posenc.calls",)),
}
SETUP_FUNCTION = ("avmae.blocks", "trunc_normal")

# Per-layer metrics, their units and which way is better. Time metrics are
# per op, median over the traced ops; counts are per op, median over the
# first COUNT_OPS traced ops, which are the same ops for a given seed.
PER_LAYER = [
    ("encoder.layer.self_ms", "ms", "lower"),
    ("encoder.layer.calls", "count", "lower"),
    ("encoder.size_groups", "count", "lower"),
    ("encoder.stage1_ms", "ms", "lower"),
    ("encoder.stage2_ms", "ms", "lower"),
    ("encoder.stage3_ms", "ms", "lower"),
    ("encoder.stage4_ms", "ms", "lower"),
    ("encoder.ffn_ms", "ms", "lower"),
    ("encoder.partition_ms", "ms", "lower"),
    ("encoder.score_useful_ratio", "ratio", "higher"),
    ("blocks.attention.fwd_ms", "ms", "lower"),
    ("blocks.attention.bwd_ms", "ms", "lower"),
    ("blocks.attention.calls", "count", "lower"),
    ("blocks.attention.mflop", "MFLOP", "lower"),
    ("blocks.attention.score_entries", "count", "lower"),
    ("blocks.layernorm.fwd_ms", "ms", "lower"),
    ("blocks.layernorm.bwd_ms", "ms", "lower"),
    ("blocks.layernorm.calls", "count", "lower"),
    ("blocks.feedforward.fwd_ms", "ms", "lower"),
    ("blocks.feedforward.bwd_ms", "ms", "lower"),
    ("blocks.feedforward.mflop", "MFLOP", "lower"),
    ("blocks.convbnprelu.fwd_ms", "ms", "lower"),
    ("blocks.convbnprelu.bwd_ms", "ms", "lower"),
    ("blocks.zero_grad_ms", "ms", "lower"),
    ("blocks.trunc_normal_ms", "ms", "lower"),
    ("blocks.trunc_normal.redraw_ratio", "ratio", "lower"),
    ("training.adamw_ms", "ms", "lower"),
    ("training.step.self_ms", "ms", "lower"),
    ("pretrain.fusion.fwd_ms", "ms", "lower"),
    ("pretrain.fusion.bwd_ms", "ms", "lower"),
    ("pretrain.decoder.fwd_ms", "ms", "lower"),
    ("pretrain.decoder.bwd_ms", "ms", "lower"),
    ("pretrain.model.self_ms", "ms", "lower"),
    ("masking.masks_ms", "ms", "lower"),
    ("masking.assemble_ms", "ms", "lower"),
    ("losses.masked_mse_ms", "ms", "lower"),
    ("losses.info_nce_ms", "ms", "lower"),
    ("losses.cross_entropy_ms", "ms", "lower"),
    ("iavcl.dier.fwd_ms", "ms", "lower"),
    ("iavcl.dier.bwd_ms", "ms", "lower"),
    ("iavcl.refine.fwd_ms", "ms", "lower"),
    ("iavcl.refine.bwd_ms", "ms", "lower"),
    ("iavcl.hafe.fwd_ms", "ms", "lower"),
    ("iavcl.hafe.bwd_ms", "ms", "lower"),
    ("iavcl.head.self_ms", "ms", "lower"),
    ("finetune.model.self_ms", "ms", "lower"),
    ("embedding.embed.fwd_ms", "ms", "lower"),
    ("embedding.embed.bwd_ms", "ms", "lower"),
    ("embedding.targets_ms", "ms", "lower"),
    ("embedding.posenc_ms", "ms", "lower"),
    ("embedding.posenc.calls", "count", "lower"),
    ("trace.covered_share", "share", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
]
COUNT_OPS = 3


def _method_metrics(cls: str, method: str, parent_cls: str | None, attr: str):
    """(inclusive, self, calls) metric names for one wrapped method."""
    direction = "bwd" if "backward" in method else "fwd"
    incl, self_, calls = [], [], []
    if method == "zero_grad":
        return ("blocks.zero_grad_ms",), (), ()
    if cls in _BLOCK_METRIC:
        incl.append(f"{_BLOCK_METRIC[cls]}.{direction}_ms")
    if cls in _CALL_METRIC:
        calls.append(_CALL_METRIC[cls])
    if cls in _SELF_METRIC:
        self_.append(_SELF_METRIC[cls])
    if parent_cls == "LGILayer" and attr in _LGI_STAGE:
        stage = _LGI_STAGE[attr]
        incl.append("encoder.ffn_ms" if stage == "ffn" else f"encoder.stage{stage}_ms")
    return tuple(incl), tuple(self_), tuple(calls)


class _DrawCounter:
    """Generator proxy that counts the normal draws passing through it.

    ``standard_normal`` is counted too: it is the generator method that can
    draw float32 directly, which a cheaper initialiser would use.
    """

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def normal(self, *args, **kwargs):
        out = self._rng.normal(*args, **kwargs)
        self.drawn += np.size(out)
        return out

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self.drawn += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _walk(block, path="", parent_cls=None, attr=""):
    """Yield (module path, block, parent class name, attribute name)."""
    yield path, block, parent_cls, attr
    for name, child in block._children.items():
        yield from _walk(child, f"{path}.{name}" if path else name,
                         type(block).__name__, name)


_ABSENT = object()   # marks an instance attribute that a patch adds


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "avmae" or name.startswith("avmae."))]


class Tracer:
    """Records spans and computed counts; ``op`` tags what they belong to.

    ``op`` is a timed-op index (>= 0) or a set-up repetition (-1, -2, ...).
    """

    def __init__(self):
        # one entry per span in each list; flat lists of numbers keep the
        # cyclic garbage collector from walking every recorded span
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.names: list[str] = []
        self.meta: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []
        self._layers: list[dict] = []
        self._applied: list[tuple] = []
        self._planned = None
        self._plan: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str, metrics) -> int:
        self.names.append(name)
        self.meta.append(metrics)
        return len(self.names) - 1

    def _wrap(self, fn, name_id: int, pre=None, post=None):
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack, clock = self.span_parent, self.span_op, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if post is not None:
                    post()
        return wrapper

    def _apply(self, patches):
        for target, attr, value, original in patches:
            if original is _ABSENT:
                if attr in vars(target):
                    raise RuntimeError(f"{attr} on {type(target).__name__} is already wrapped")
                object.__setattr__(target, attr, value)
            else:
                setattr(target, attr, value)
            self._applied.append((target, attr, original))

    def uninstall(self):
        """Remove every wrapper; the package runs unmodified afterwards."""
        while self._applied:
            target, attr, original = self._applied.pop()
            if original is _ABSENT:
                del vars(target)[attr]
            else:
                setattr(target, attr, original)

    @staticmethod
    def _function_patches(module: str, name: str, replacement_for):
        """Patches for every avmae module attribute bound to the function."""
        original = getattr(sys.modules[module], name)
        return [(mod, attr, replacement_for(original), original)
                for mod in _modules() for attr, value in list(vars(mod).items())
                if value is original]

    def install_setup(self):
        """Wrap the construction-time function (truncated-normal init)."""
        name_id = self._name_id("trunc_normal", (("blocks.trunc_normal_ms",), (), ()))

        def counted(original):
            def trunc_normal(rng, *args, **kwargs):
                proxy = _DrawCounter(rng)
                out = original(proxy, *args, **kwargs)
                self.counts[self.op]["trunc_normal.drawn"] += proxy.drawn
                self.counts[self.op]["trunc_normal.entries"] += out.size
                return out
            return self._wrap(trunc_normal, name_id)

        self._apply(self._function_patches(*SETUP_FUNCTION, counted))

    def capture_optimizer(self, captured: dict):
        """Keep the model and optimizer that run_pretrain or run_supervised builds."""
        def capturing(original):
            def optimizer_for(model, *args, **kwargs):
                optimizer = original(model, *args, **kwargs)
                captured.update(model=model, optimizer=optimizer)
                return optimizer
            return optimizer_for

        self._apply(self._function_patches("avmae.training", "optimizer_for", capturing))

    def install(self, model, optimizer=None):
        """Wrap the model's blocks, the optimizer step and package functions.

        The wrappers are built on the first call and reused after that.
        """
        if self._planned is not model:
            self._plan = self._plan_model(model, optimizer)
            self._planned = model
        self._apply(self._plan)

    def _plan_model(self, model, optimizer):
        patches = []
        for path, block, parent_cls, attr in _walk(model):
            cls = type(block).__name__
            for method in WRAPPED_METHODS.get(cls, ()):
                name_id = self._name_id(f"{path or '<model>'}.{method}",
                                        _method_metrics(cls, method, parent_cls, attr))
                pre, post = self._counters(cls, method, block, parent_cls, attr)
                wrapper = self._wrap(getattr(block, method), name_id, pre, post)
                patches.append((block, method, wrapper, _ABSENT))
        if optimizer is not None:
            name_id = self._name_id("optimizer.step", (("training.adamw_ms",), (), ()))
            patches.append((optimizer, "step", self._wrap(optimizer.step, name_id), _ABSENT))
        for (module, name), metrics in FUNCTIONS.items():
            name_id = self._name_id(name, metrics)
            patches += self._function_patches(
                module, name, lambda fn, i=name_id: self._wrap(fn, i))
        return patches

    # -- computed counts ----------------------------------------------------

    def _counters(self, cls, method, block, parent_cls, attr):
        if method != "forward":
            return None, None
        if cls == "Attention":
            stage = _LGI_STAGE.get(attr) if parent_cls == "LGILayer" else None
            return (lambda args, kwargs: self._count_attention(block, stage, args, kwargs)), None
        if cls == "FeedForward":
            return (lambda args, kwargs: self._count_ffn(block, args)), None
        if cls == "LGILayer":
            return ((lambda args, kwargs: self._enter_layer(block, args, kwargs)),
                    self._exit_layer)
        return None, None

    def _count_attention(self, block, stage, args, kwargs):
        q = args[0] if args else kwargs["q_in"]
        kv = args[1] if len(args) > 1 else kwargs.get("kv_in")
        kv = q if kv is None else kv
        bq = q.shape[0] if q.ndim == 3 else 1
        bk = kv.shape[0] if kv.ndim == 3 else 1
        tq, tk = q.shape[-2], kv.shape[-2]
        b, c, h = max(bq, bk), block.dim, block.heads
        entries = b * h * tq * tk
        flop = 2 * c * c * (bq * tq + 2 * bk * tk + b * tq) + 4 * entries * block.head_dim
        counts = self.counts[self.op]
        counts["blocks.attention.score_entries"] += entries
        counts["blocks.attention.mflop"] += flop / 1e6
        if stage is not None and self._layers:
            self._layers[-1]["ran"].add(stage)
            counts["encoder.score_computed"] += entries

    def _count_ffn(self, block, args):
        x = args[0]
        c = x.shape[-1]
        rows = x.size // c
        self.counts[self.op]["blocks.feedforward.mflop"] += 4 * rows * c * block.fc1.d_out / 1e6

    def _enter_layer(self, block, args, kwargs):
        part = args[2] if len(args) > 2 else kwargs["part"]
        sizes = [m.size for m in part.members]
        k, heads = len(sizes), block.attn_local.heads
        ideal = {1: heads * sum((n + 1) ** 2 for n in sizes),
                 2: heads * k * k,
                 3: heads * k * sum(sizes),
                 4: heads * sum(sizes)}
        self.counts[self.op]["encoder.size_groups"] += len(set(sizes))
        self._layers.append({"ideal": ideal, "ran": set()})

    def _exit_layer(self):
        layer = self._layers.pop()
        self.counts[self.op]["encoder.score_useful"] += sum(
            layer["ideal"][s] for s in layer["ran"])

    # -- results ------------------------------------------------------------

    def per_op(self) -> dict[int, Counter]:
        """Metric totals per op tag from spans plus computed counts."""
        spans = list(zip(self.span_name, self.span_start, self.span_end,
                         self.span_parent, self.span_op))
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[int, Counter] = defaultdict(Counter)
        for i, (name_id, start, end, parent, op) in enumerate(spans):
            incl, self_, calls = self.meta[name_id]
            dur = end - start
            row = totals[op]
            for m in incl:
                row[m] += dur * 1e3
            for m in self_:
                row[m] += (dur - child_time[i]) * 1e3
            for m in calls:
                row[m] += 1
            if parent < 0:
                row["covered_s"] += dur
        for op, counts in self.counts.items():
            totals[op].update(counts)
        return totals

    def layer_metrics(self, traced_ops: list[float], untraced_ops: list[float]) -> dict:
        """Per-layer metrics; traced_ops[i] is the duration (s) of op i."""
        totals = self.per_op()
        ops = range(len(traced_ops))
        first = range(min(COUNT_OPS, len(traced_ops)))
        setups = sorted(op for op in totals if op < 0)
        out = {}
        for name, unit, _ in PER_LAYER:
            if unit == "ms":
                out[name] = statistics.median(totals[i][name] for i in ops)
            elif unit in ("count", "MFLOP"):
                out[name] = statistics.median(totals[i][name] for i in first)
        out["blocks.trunc_normal_ms"] = statistics.median(
            totals[op]["blocks.trunc_normal_ms"] for op in setups) if setups else 0.0
        setup_counts = totals[setups[-1]] if setups else Counter()
        entries = setup_counts["trunc_normal.entries"]
        out["blocks.trunc_normal.redraw_ratio"] = (
            (setup_counts["trunc_normal.drawn"] - entries) / entries if entries else 0.0)
        computed = sum(totals[i]["encoder.score_computed"] for i in first)
        useful = sum(totals[i]["encoder.score_useful"] for i in first)
        out["encoder.score_useful_ratio"] = useful / computed if computed else 0.0
        out["trace.covered_share"] = statistics.median(
            totals[i]["covered_s"] / traced_ops[i] for i in ops)
        out["trace.overhead_ms"] = 1e3 * (statistics.median(traced_ops)
                                          - statistics.median(untraced_ops))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, start, end, parent, op in zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_op):
                fh.write(json.dumps([self.names[name_id], start, end, parent, op]) + "\n")
