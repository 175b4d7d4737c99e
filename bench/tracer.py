"""Outside-in tracing of castnet's public functions.

The tracer replaces module attributes of the public functions of each layer
with timing wrappers while it is installed, and puts the originals back when
it is removed. Nothing in ``src/`` knows about it. Every binding of a
function is wrapped, including the ones that ``from .x import f`` created in
other castnet modules, so a call is seen whichever module it goes through.

Two kinds of record are kept in memory:

* spans, at layer boundaries (model stages, nn blocks, train, metrics,
  preprocess, synth, cli): name, start, end and the index of the parent
  span;
* counters for tape ops: forward seconds per op function, backward seconds
  per op name (by wrapping the ``backward_fn`` handed to ``apply_op``),
  ``apply_op`` calls, tape records and recorded output bytes.

Tensor op functions are counted rather than spanned, so the self time of a
span at a layer boundary includes the tape ops it issues directly. The
tracer keeps a single span stack and so needs ``CAST_THREADS=1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# layer -> public functions recorded as spans
SPAN_FUNCS = {
    "cli": ("main",),
    "synth": ("generate_dataset", "generate_clip"),
    "preprocess": ("write_clip", "read_clip", "load_split"),
    "model": ("forward", "backbone_stages", "temporal_tokens", "spatial_tokens",
              "encode_temporal", "cross_attention_fuse", "decoupled_fuse",
              "multi_scale_tokens", "classify", "save_checkpoint",
              "load_checkpoint"),
    "nn": ("conv2d", "avg_pool2d", "global_avg_pool", "layer_norm",
           "softmax_rows", "dropout", "scaled_dot_attention", "mhsa"),
    "train": ("train", "adam_step"),
    "metrics": ("evaluate", "roc_auc"),
    "tensor": ("backward",),
}

# tape ops whose forward is a plain tensor function; the fused nn ops above
# get their forward time from their spans
TENSOR_OPS = ("matmul", "add", "sub", "mul", "scale", "sigmoid", "exp", "log",
              "relu", "softplus", "sum_all", "reshape", "transpose", "concat",
              "stack", "mean_axis0", "repeat_rows")

_clock = time.perf_counter


def _castnet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "castnet" or name.startswith("castnet."))]


class Tracer:
    """Spans and op counters for one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.op_fwd_s = defaultdict(float)
        self.op_bwd_s = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.op_records = defaultdict(int)
        self.tape_bytes = 0
        self.forward_s = {"train": [], "eval": []}
        self.step_s: list[float] = []
        self.adam_calls = 0
        self.adam_applied = 0
        self._last_adam_return = None
        self.read_bytes = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in castnet's modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import castnet.cli  # noqa: F401  (load every module before scanning)

        replacements = {}
        for layer, funcs in SPAN_FUNCS.items():
            mod = importlib.import_module(f"castnet.{layer}")
            for fname in funcs:
                orig = getattr(mod, fname)
                replacements[id(orig)] = self._span_wrapper(f"{layer}.{fname}", orig)
        tensor = importlib.import_module("castnet.tensor")
        for op in TENSOR_OPS:
            orig = getattr(tensor, op)
            replacements[id(orig)] = self._op_wrapper(op, orig)
        orig_apply = tensor.apply_op
        replacements[id(orig_apply)] = self._apply_op_wrapper(orig_apply)

        for mod in _castnet_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original attribute, newest first."""
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, name, fn):
        nid = self._name_id(name)
        after = {
            "model.forward": self._after_forward,
            "train.adam_step": self._after_adam,
        }.get(name)
        before = self._before_read_clip if name == "preprocess.read_clip" else None
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if name == "train.train":
                self._last_adam_return = None  # steps are timed within one run
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                ends[idx] = end
                stack.pop()
            if after is not None:
                after(args, kwargs, result, end - starts[idx], end)
            return result

        return wrapped

    def _op_wrapper(self, op, fn):
        fwd = self.op_fwd_s

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                fwd[op] += _clock() - t0

        return wrapped

    def _apply_op_wrapper(self, orig):
        bwd, calls, records = self.op_bwd_s, self.op_calls, self.op_records

        @functools.wraps(orig)
        def wrapped(op, out_data, inputs, backward_fn):
            calls[op] += 1

            def timed_backward(g):
                t0 = _clock()
                try:
                    return backward_fn(g)
                finally:
                    bwd[op] += _clock() - t0

            out = orig(op, out_data, inputs, timed_backward)
            if out.requires_grad:
                records[op] += 1
                self.tape_bytes += out_data.nbytes
            return out

        return wrapped

    def _after_forward(self, args, kwargs, result, seconds, end):
        from castnet import tensor

        mode = kwargs.get("mode", args[3] if len(args) > 3 else "eval")
        # grad-disabled forwards during training are validation
        bucket = "train" if mode == "train" and tensor.is_grad_enabled() else "eval"
        self.forward_s[bucket].append(seconds)

    def _after_adam(self, args, kwargs, applied, seconds, end):
        self.adam_calls += 1
        self.adam_applied += bool(applied)
        if self._last_adam_return is not None:
            self.step_s.append(end - self._last_adam_return)
        self._last_adam_return = end

    def _before_read_clip(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        self.read_bytes += os.path.getsize(path)

    # -- results -----------------------------------------------------------

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.span_start)
        if n == 0:
            return {}
        names = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parents = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_s, minlength=k)
        return {self.names[i]: (int(calls[i]), float(incl[i]), float(own[i]))
                for i in range(k) if calls[i]}

    def write_spans(self, path) -> None:
        """Dump every span (name, start, end, parent) as one .npz file."""
        np.savez(path,
                 names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start),
                 end=np.frombuffer(self.span_end))
