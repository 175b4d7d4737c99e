"""Runs one workload, untraced or traced, and builds its result record.

Untraced (``trace=False``) gives the end-to-end metrics: the workload sets up
``setup_reps`` times, then issues its command for the given seconds.

Traced (``trace=True``) gives the per-layer metrics. It sets up once, then
installs the tracer for one ``castnet gen`` and a fixed number of commands,
so that exact counters repeat for a fixed seed. Untraced runs of the command
before and after, a sixth of the seconds each, are the reference: the
tracing overhead is the share of their command rate that the traced
commands lose.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess

import numpy as np

import workloads as W
from tracer import TENSOR_OPS, Tracer

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "CAST_THREADS": "1"}
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "CAST_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")

END_TO_END = {
    "ref_clips_per_s": "clips/s",
    "setup_s": "s",
    "auc": "ratio",
    "peak_rss_mb": "MiB",
    "ok_share": "ratio",
}

# ops every workload reports, seen or not, in the final line; the result file
# also holds any other op the run recorded
REPORTED_OPS = ("matmul", "add", "scale", "relu", "softplus", "reshape",
                "transpose", "concat", "mean_axis0", "repeat_rows", "conv2d",
                "avg_pool2d", "global_avg_pool", "layer_norm", "softmax_rows",
                "dropout")

PER_LAYER = {
    "tensor.ops_per_step": "count",
    "tensor.records_total": "count",
    "tensor.matmul_calls_per_step": "count",
    "tensor.tape_bytes_per_step": "bytes",
    "tensor.backward.ms": "ms",
    **{f"tensor.op.{op}.{kind}": unit for op in REPORTED_OPS
       for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))},
    "nn.conv2d.fwd_ms": "ms",
    "nn.conv2d.bwd_ms": "ms",
    "nn.mhsa.ms": "ms",
    "nn.scaled_dot_attention.ms": "ms",
    "model.backbone_stages.ms": "ms",
    "model.temporal_tokens.ms": "ms",
    "model.spatial_tokens.ms": "ms",
    "model.encode_temporal.ms": "ms",
    "model.cross_attention_fuse.ms": "ms",
    "model.decoupled_fuse.ms": "ms",
    "model.multi_scale_tokens.ms": "ms",
    "model.classify.ms": "ms",
    "model.forward.train_ms_p50": "ms",
    "model.forward.train_ms_p90": "ms",
    "model.forward.eval_ms_p50": "ms",
    "model.forward.eval_ms_p90": "ms",
    "model.save_checkpoint.ms": "ms",
    "model.load_checkpoint.ms": "ms",
    "train.adam_step.ms": "ms",
    "train.step_ms_p50": "ms",
    "train.step_ms_p90": "ms",
    "train.adam_step.applied_ratio": "ratio",
    "metrics.evaluate.ms": "ms",
    "metrics.roc_auc.ms": "ms",
    "preprocess.read_clip.ms": "ms",
    "preprocess.read_clip.bytes": "bytes",
    "preprocess.write_clip.ms": "ms",
    "synth.generate_clip.ms": "ms",
    "synth.generate_clip.calls": "count",
    "cli.main.ms": "ms",
    "trace.overhead_share": "ratio",
}

# spans reported by self time (their own work, children excluded) and by
# inclusive time, both per work unit
SELF_TIME_SPANS = ("nn.mhsa", "nn.scaled_dot_attention", "model.encode_temporal",
                   "model.cross_attention_fuse", "model.decoupled_fuse",
                   "model.multi_scale_tokens")
INCLUSIVE_SPANS = ("model.backbone_stages", "model.temporal_tokens",
                   "model.spatial_tokens", "model.classify")
PER_CALL_SPANS = ("model.save_checkpoint", "model.load_checkpoint",
                  "train.adam_step", "metrics.evaluate", "metrics.roc_auc",
                  "preprocess.read_clip", "preprocess.write_clip",
                  "synth.generate_clip", "cli.main")


def _ms_percentile(seconds: list[float], q: float) -> float:
    return 1000.0 * float(np.percentile(seconds, q)) if seconds else 0.0


def layer_metrics(tr: Tracer, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics from a tracer. Aggregate times are ms per work
    unit: per optimizer step when the traced commands train, else per
    scored clip. Functions called per file or per command are ms per call;
    the p50/p90 figures are per call too. Counts are totals or per step."""
    spans = tr.span_table()
    steps = tr.adam_calls
    work_units = steps or len(tr.forward_s["eval"])

    def per_unit(seconds):
        return 1000.0 * seconds / work_units if work_units else 0.0

    def per_step(count):
        return count / steps if steps else 0.0

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    records = sum(tr.op_records.values())
    m = {
        "tensor.ops_per_step": per_step(records),
        "tensor.records_total": records,
        "tensor.matmul_calls_per_step": per_step(tr.op_records["matmul"]),
        "tensor.tape_bytes_per_step": per_step(tr.tape_bytes),
        "tensor.backward.ms": per_unit(incl("tensor.backward")),
    }
    ops = set(REPORTED_OPS) | set(tr.op_calls)
    for op in sorted(ops):
        fwd = tr.op_fwd_s[op] if op in TENSOR_OPS else incl(f"nn.{op}")
        m[f"tensor.op.{op}.fwd_ms"] = per_unit(fwd)
        m[f"tensor.op.{op}.bwd_ms"] = per_unit(tr.op_bwd_s[op])
        m[f"tensor.op.{op}.calls"] = tr.op_calls[op]
    m["nn.conv2d.fwd_ms"] = per_unit(incl("nn.conv2d"))
    m["nn.conv2d.bwd_ms"] = per_unit(tr.op_bwd_s["conv2d"])
    for name in SELF_TIME_SPANS:
        m[f"{name}.ms"] = per_unit(spans.get(name, (0, 0.0, 0.0))[2])
    for name in INCLUSIVE_SPANS:
        m[f"{name}.ms"] = per_unit(incl(name))
    for bucket in ("train", "eval"):
        for q in (50, 90):
            m[f"model.forward.{bucket}_ms_p{q}"] = _ms_percentile(tr.forward_s[bucket], q)
    for name in PER_CALL_SPANS:
        calls, total, _ = spans.get(name, (0, 0.0, 0.0))
        m[f"{name}.ms"] = 1000.0 * total / calls if calls else 0.0
    m["train.step_ms_p50"] = _ms_percentile(tr.step_s, 50)
    m["train.step_ms_p90"] = _ms_percentile(tr.step_s, 90)
    m["train.adam_step.applied_ratio"] = tr.adam_applied / steps if steps else 0.0
    reads = spans.get("preprocess.read_clip", (0,))[0]
    m["preprocess.read_clip.bytes"] = tr.read_bytes / reads if reads else 0.0
    m["synth.generate_clip.calls"] = spans.get("synth.generate_clip", (0,))[0]
    m["trace.overhead_share"] = overhead_share
    return m


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception as e:  # older numpy has no dict mode
        return {"name": None, "version": None, "error": str(e)}


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _src_sha256(root: str) -> str:
    """Digest of the castnet sources, which identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "castnet")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def provenance(root: str, seed: int, runs: dict) -> dict:
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "seed": seed,
        "runs": runs,
    }


@contextlib.contextmanager
def pinned_env():
    saved = {k: os.environ.get(k) for k in PINNED_ENV}
    os.environ.update(PINNED_ENV)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 work_dir: str, out_dir: str, toy: bool = False) -> dict:
    """Run one workload and return its full result record; the caller prints
    the result line from its ``correct``, ``attempted``, ``failed`` and
    ``metrics`` keys."""
    work = os.path.join(work_dir, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    ledger = W.Ledger()
    wl = W.WORKLOADS[name](seed, work, toy)
    try:
        with pinned_env():
            if trace:
                record = _traced(wl, ledger, seconds, out_dir)
            else:
                record = _untraced(wl, ledger, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["provenance"] = provenance(root, seed, record.pop("runs"))
    record.update(workload=name, trace=int(trace), correct=ledger.failed == 0,
                  attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    record["result_file"] = path
    return record


def _slowdown(samples: list[float]) -> float:
    return statistics.median(samples) / W.REFERENCE_NOMINAL_S if samples else 1.0


def _untraced(wl, ledger, seconds) -> dict:
    sampler = wl.sampler = W.HostSpeedSampler()
    setups = W.run_setups(wl, ledger, wl.setup_reps)
    setup_samples = len(sampler.samples)
    timed = W.timed_loop(wl, ledger, seconds)
    wl.sampler = None
    wl.final_checks(ledger)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clips_per_s = wl.clips_per_command() / statistics.median(timed) if timed else 0.0
    # each phase is scaled by the host speed sampled while it ran
    setup_slowdown = _slowdown(sampler.samples[:setup_samples])
    host_slowdown = _slowdown(sampler.samples[setup_samples:])
    values = {
        "ref_clips_per_s": clips_per_s * host_slowdown,
        "setup_s": statistics.median(setups) / setup_slowdown,
        "auc": wl.last_auc if math.isfinite(wl.last_auc) else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (ledger.attempted - ledger.failed) / max(ledger.attempted, 1),
    }
    own = wl.own_metrics(timed) if timed else {}
    own["failed_share"] = (ledger.failed / max(ledger.attempted, 1), "ratio")
    own["clips_per_s"] = (clips_per_s, "clips/s")
    own["raw_setup_s"] = (statistics.median(setups), "s")
    own["host_slowdown"] = (host_slowdown, "ratio")
    own["setup_host_slowdown"] = (setup_slowdown, "ratio")
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in own.items()},
        "samples": {"setup_s": setups, "command_s": timed, "reference_s": sampler.samples},
        "runs": {"setups": len(setups), "timed_commands": len(timed)},
    }


def _traced(wl, ledger, seconds, out_dir) -> dict:
    W.run_setups(wl, ledger, 1)
    # untraced reference commands on both sides of the traced ones, so that
    # host drift over the run cancels in the overhead
    reference = W.timed_loop(wl, ledger, seconds / 6.0)
    tr = wl.tracer = Tracer()
    wl.gen(ledger, os.path.join(wl.work, "traced_gen"))
    traced = W.timed_loop(wl, ledger, 0.0, min_units=wl.traced_units)
    wl.tracer = None
    reference += W.timed_loop(wl, ledger, seconds / 6.0)
    wl.final_checks(ledger)
    overhead = (1.0 - statistics.median(reference) / statistics.median(traced)
                if reference and traced else 0.0)
    full = layer_metrics(tr, overhead)
    os.makedirs(out_dir, exist_ok=True)
    tr.write_spans(os.path.join(out_dir, f"{wl.name}-seed{wl.seed}.spans.npz"))
    clips = wl.clips_per_command()
    return {
        "metrics": {k: {"value": full[k], "unit": u} for k, u in PER_LAYER.items()},
        "layer_metrics": full,
        "span_table": {k: {"calls": c, "incl_s": i, "self_s": s}
                       for k, (c, i, s) in tr.span_table().items()},
        "overhead": {"untraced_clips_per_s": clips / statistics.median(reference) if reference else 0.0,
                     "traced_clips_per_s": clips / statistics.median(traced) if traced else 0.0},
        "samples": {"untraced_command_s": reference, "traced_command_s": traced},
        "runs": {"setups": 1, "untraced_commands": len(reference),
                 "traced_commands": len(traced), "spans": len(tr.span_start)},
    }
