#!/usr/bin/env python3
"""Benchmark of the tomcat CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload ng20-train --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):
  ng20-train  20NG-shaped corpus, V=2000, K=20; timed: train, topics
  ng20-read   the same corpus; timed: ingest, topics, infer, eval-coherence
  all         each of the above in turn

One client runs the stages one after another (a closed loop, no concurrency),
with BLAS pinned to one thread. Every input is generated from --seed. The
run sets up the workload three times (``setup_s`` is their median), then
repeats rounds for --seconds: the workload's timed stages, then one
measurement of each stage the workload does not time, so that every metric
has samples spread over the run. On ng20-train a last phase prints the
behaviour fingerprint. With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of an outside-in traced run.

The program is imported from ./src; the run fails (exit 2) when it is absent.
Scratch files go to ./.perfbench_runs/work (removed at exit); results and
spans to ./.perfbench_runs/out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ng20-train", "ng20-read")
RUN_LIMIT_S = 170          # a run must end within 180 s
LAST_ROUND_START_S = 120   # no timed round starts later than this into the run
BLAS_THREADS = "1"
LAYERS = ("Linear", "LeakyReLU", "BatchNorm", "Softmax")
LOSSES = ("l1_loss", "l1_loss_backward", "cross_entropy", "cross_entropy_backward")
TRAIN_NETWORKS = ("E", "G", "D_X", "D_Z")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run: missing sources or a crashed phase."""


def median(values):
    return statistics.median(values) if values else float("nan")


def run_total(values, rate: bool = False):
    """A run's samples as one figure: the mean time, or for a rate the work
    done over the time taken (the harmonic mean; every sample of a metric
    does the same work). The machine's neighbours slow it by up to half in
    spells of seconds to tens of seconds, so a run's samples fall in a fast
    and a slow mode in shares that vary from run to run; the total weighs
    the modes by the time they last, where the median or a low percentile
    jumps from one mode to the other."""
    if not values:
        return float("nan")
    return statistics.harmonic_mean(values) if rate else statistics.fmean(values)


def run_phase(phase: str, request: dict, env: dict, deadline: float) -> dict:
    work = Path(request["work"])
    req_path, res_path = work / f"{phase}.request.json", work / f"{phase}.result.json"
    req_path.write_text(json.dumps({**request, "phase": phase}), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(req_path),
                               str(res_path)], env=env, cwd=request["root"],
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{phase} phase ran past the time limit") from exc
    if proc.returncode != 0 or not res_path.exists():
        raise BenchmarkError(f"{phase} phase failed (exit {proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(res_path.read_text(encoding="utf-8"))


def first_samples(metric: str, *phases: dict) -> list[float]:
    """Samples of a metric from the first phase that has any: ng20-read
    trains only in its set-up."""
    for phase in phases:
        if phase and phase["samples"].get(metric):
            return phase["samples"][metric]
    return []


def end_to_end(setup: dict, timed: dict, ops: list) -> dict:
    failed = sum(1 for op in ops if not op[1])
    samples = timed["samples"]
    return {
        "setup_s": median(setup["samples"].get("setup_s", [])),
        "train_iters_per_s": run_total(first_samples("train_iters_per_s", timed, setup),
                                       rate=True),
        "train_stage_s": run_total(first_samples("train_stage_s", timed, setup)),
        "ingest_s": run_total(samples.get("ingest_s", [])),
        "infer_docs_per_s": run_total(samples.get("infer_docs_per_s", []), rate=True),
        "coherence_s": run_total(samples.get("coherence_s", [])),
        "readout_s": run_total(samples.get("readout_s", [])),
        "peak_rss_mb": timed["info"]["peak_rss_mb"],
        "ok_ops_ratio": (len(ops) - failed) / len(ops),
    }


def merge_traces(*phases: dict) -> dict:
    merged = {"iterations": [], "in_iter": {}, "per_call": {}, "iter_counts": {}, "facts": {}}
    for phase in phases:
        trace = phase["trace"]
        if not trace:
            continue
        merged["iterations"] += trace["iterations"]
        for name, (calls, total, self_s) in trace["in_iter"].items():
            agg = merged["in_iter"].setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, durations in trace["per_call"].items():
            merged["per_call"].setdefault(name, []).extend(durations)
        for name, value in trace["iter_counts"].items():
            merged["iter_counts"][name] = merged["iter_counts"].get(name, 0) + value
        merged["facts"].update(trace["facts"])
    return merged


def per_layer(setup: dict, timed: dict) -> dict:
    # facts of the timed stages win over set-up's
    trace = merge_traces(setup, timed)
    iters = trace["iterations"]
    n = len(iters) or math.nan   # no iteration traced: every per-iteration metric is nan
    in_iter = trace["in_iter"]
    facts = trace["facts"]

    def per_iter_ms(name: str, column: int) -> float:
        return 1e3 * in_iter.get(name, [0, 0.0, 0.0])[column] / n

    def p95(values: list[float]) -> float:
        if len(values) < 2:
            return median(values)
        return statistics.quantiles(values, n=20, method="inclusive")[18]

    def call_s(name: str) -> float:
        return median(trace["per_call"].get(name, []))

    out = {
        "training.iter_ms_p50": 1e3 * median([it[0] for it in iters]),
        "training.iter_ms_p95": 1e3 * p95([it[0] for it in iters]),
        "training.critic_phase.ms_p50": 1e3 * median([it[1] for it in iters]),
        "training.mapper_phase.ms_p50": 1e3 * median([it[2] for it in iters]),
        "training.data_wait_ms_p50": 1e3 * median([it[0] - it[1] - it[2] for it in iters]),
    }
    for net in TRAIN_NETWORKS:
        for direction in ("forward", "backward"):
            out[f"networks.{net}.{direction}.ms_per_iter"] = per_iter_ms(
                f"networks.{net}.{direction}", 1)
    out["networks.sample_prior.ms_per_iter"] = per_iter_ms("networks.sample_prior", 1)
    for layer in LAYERS:
        for direction in ("forward", "backward"):
            out[f"nn.{layer}.{direction}.self_ms_per_iter"] = per_iter_ms(
                f"nn.{layer}.{direction}", 2)
    out["nn.Adam.step.ms_per_iter"] = per_iter_ms("nn.Adam.step", 1)
    out["nn.clip_weights.ms_per_iter"] = per_iter_ms("nn.clip_weights", 1)
    out["nn.losses.ms_per_iter"] = sum(per_iter_ms(f"nn.{fn}", 1) for fn in LOSSES)
    out["nn.layer_calls_per_iter"] = sum(
        in_iter.get(f"nn.{layer}.{d}", [0])[0] for layer in LAYERS
        for d in ("forward", "backward")) / n
    counts = trace["iter_counts"]
    out["nn.Adam.tensors_per_iter"] = counts.get("nn.Adam.tensors", 0) / n
    out["nn.Linear.gflop_per_iter"] = counts.get("nn.Linear.flop", 0) / n / 1e9
    out["nn.Adam.mb_per_iter"] = counts.get("nn.Adam.bytes", 0) / n / 1e6
    for fn in ("load_documents", "build_vocabulary", "count_documents", "tfidf",
               "tfidf_transform"):
        out[f"corpus.{fn}.s"] = call_s(f"corpus.{fn}")
    out["corpus.tfidf.peak_alloc_mb"] = facts.get("corpus.tfidf.peak_alloc_mb", 0.0)
    out["corpus.tfidf.density"] = facts.get("corpus.tfidf.density", 0.0)
    out["cli.train.load_s"] = median(first_samples("cli.train.load_s", timed, setup))
    out["evaluation.build_cooc.s"] = call_s("evaluation.build_cooc")
    out["evaluation.model_coherence.s"] = call_s("evaluation.model_coherence")
    stored = facts.get("evaluation.cooc_pairs_stored", 0)
    read = facts.get("evaluation.cooc_pairs_read", 0)
    out["evaluation.cooc_pairs_stored"] = stored
    out["evaluation.cooc_pairs_read"] = read
    out["evaluation.cooc_read_ratio"] = read / stored if stored else 0.0
    out["checkpoint.save_checkpoint.s"] = call_s("checkpoint.save_checkpoint")
    out["checkpoint.load_checkpoint.s"] = call_s("checkpoint.load_checkpoint")
    out["checkpoint.bytes"] = facts.get("checkpoint.bytes", 0)
    rates = timed["info"]["overhead_rates"]
    out["trace.overhead_pct"] = 100.0 * (median(rates["untraced"]) / median(rates["traced"]) - 1)
    glue = sum(it[3] for it in iters) + sum(in_iter.get(p, [0, 0.0, 0.0])[2] for p in
                                            ("training.critic_phase", "training.mapper_phase"))
    out["trace.unattributed_pct"] = 100.0 * glue / (sum(it[0] for it in iters) or math.nan)
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> tuple[dict, list[str]]:
    started = time.time()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    runs = root / ".perfbench_runs"
    work = runs / "work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    request = {"root": str(root), "workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "work": str(work), "out": str(runs / "out"),
               "deadline": started + LAST_ROUND_START_S}
    deadline = started + RUN_LIMIT_S
    try:
        setup = run_phase("setup", request, env, deadline)
        timed = run_phase("timed", request, env, deadline)
        tail = run_phase("tail", request, env, deadline) if workload == "ng20-train" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = setup["ops"] + timed["ops"] + (tail["ops"] if tail else [])
    info = {**setup["info"], **timed["info"], **(tail["info"] if tail else {})}
    group = "per_layer" if trace else "end_to_end"
    values = per_layer(setup, timed) if trace else end_to_end(setup, timed, ops)
    # a metric without a value (every sample's stage failed) is a failed
    # operation too, and is printed as null
    unmeasured = [name for name in (m["name"] for m in spec[group])
                  if not math.isfinite(values[name])]
    ops += [[f"metric {name} measured", False, "no value"] for name in unmeasured]
    failed = [op for op in ops if not op[1]]
    metrics = {m["name"]: {"value": None if m["name"] in unmeasured else values[m["name"]],
                           "unit": m["unit"]} for m in spec[group]}

    env_info = info["env"]
    lines = [f"workload\t{workload}\tseed {seed}\tseconds {seconds}\ttrace {int(trace)}"
             f"\trounds {info['rounds']}",
             "env\t" + "\t".join(f"{k} {v}" for k, v in env_info.items() if k != "blas_config"),
             f"env\tblas_config {env_info['blas_config']}"]
    if "corpus_shape" in info:
        lines.append("corpus\t" + "\t".join(f"{k} {v}" for k, v in info["corpus_shape"].items()))
    lines.append(f"checks\t{len(ops)} attempted\t{len(failed)} failed"
                 f"\tfailed_ops_ratio {len(failed) / len(ops):.6g}")
    lines += [f"check\tFAIL\t{name}\t{detail}" for name, _, detail in failed]
    lines += fingerprint_lines(workload, info)
    if "npmi_mean" in info:
        lines.append(f"quality\tnpmi_mean {info['npmi_mean']:.9g}")
    lines += [f"metric\t{name}\t{m['value']}\t{m['unit']}" if m["value"] is None else
              f"metric\t{name}\t{m['value']:.6g}\t{m['unit']}" for name, m in metrics.items()]

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    out = runs / "out"
    out.mkdir(parents=True, exist_ok=True)
    samples = {phase: data["samples"] for phase, data in
               (("setup", setup), ("timed", timed), ("tail", tail)) if data}
    (out / f"{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(
        {**result, "info": info, "samples": samples, "ops": ops}, indent=1), encoding="utf-8")
    return result, lines


def fingerprint_lines(workload: str, info: dict) -> list[str]:
    if "fingerprint" not in info:
        return []
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    fp = info["fingerprint"]
    expected = reference["fingerprints"].get(workload)
    verdict = "no reference" if expected is None else ("match" if fp == expected else "MISMATCH")
    lines = [f"fingerprint\t{verdict}\tcheckpoint {fp['checkpoint_sha256']}"
             f"\tloss_log {fp['loss_log_sha256']}"]
    if "fingerprint_corpus_shape" in info:
        shape = info["fingerprint_corpus_shape"]
        same = shape == reference["ng20_corpus_shape"]
        lines.append(f"corpus_shape\t{'match' if same else 'DRIFT'}\t"
                     + "\t".join(f"{k} {v}" for k, v in shape.items()))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the tomcat CLI stages.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tomcat" / "__init__.py").is_file():
        print("error: run from the root of a checkout: src/tomcat not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, lines = run_workload(root, workload, args.seed, args.seconds,
                                         bool(args.trace), spec)
            print("\n".join(lines), flush=True)
            results[workload] = result
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
