"""Outside-in span tracer for the tomcat package.

The tracer replaces public functions and methods with timing wrappers at the
place where the program looks them up: the module globals of the caller
(``tomcat.cli.tfidf``, ``tomcat.training.critic_phase``) and the class
attributes of methods (``tomcat.nn.Linear.forward``). Nothing in ``src/`` is
changed; ``uninstall`` restores every original.

A span is ``[name, start, end, parent, run_id]``. Spans are kept in memory and
written out by ``write``. A span's self time is its duration minus the
durations of its children; spans never overlap except by nesting, since the
program is single-threaded.

Training iterations have no function of their own, so the tracer opens a
``training.iter`` span at the first batch gather of an iteration and closes
it when ``mapper_phase`` returns.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ITER = "training.iter"
CRITIC = "training.critic_phase"
MAPPER = "training.mapper_phase"
TRAIN = "training.train"
LAYER_CLASSES = ("Linear", "LeakyReLU", "BatchNorm", "Softmax")
LOSSES = ("l1_loss", "l1_loss_backward", "cross_entropy", "cross_entropy_backward")
# spans whose per-call durations are kept, not only their totals
PER_CALL_PREFIXES = ("corpus.", "evaluation.", "checkpoint.")
# bytes of one fused Adam step per parameter entry: read p, g, m, v; write p, m, v
ADAM_BYTES_PER_ENTRY = 7 * 8


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.iter_span: int | None = None
        self.iter_counts: dict[str, float] = defaultdict(float)
        self.facts: dict[str, float] = {}
        self._pairs_read: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # spans -----------------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        while self.stack and self.stack.pop() != idx:
            pass

    def close_open_spans(self) -> None:
        """Close what an exception left open, innermost first."""
        while self.stack:
            self.close(self.stack[-1])
        self.iter_span = None

    # installation ----------------------------------------------------------
    def patch(self, owner, attr: str, name, after=None) -> None:
        """Wrap owner.attr in a span. ``name`` is a string or a function of
        the call's positional arguments; ``after(args, result)`` runs outside
        the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            # open() and close() inlined: this runs about 300 times an iteration
            idx = len(spans)
            spans.append([fixed or name(args), 0.0, 0.0, stack[-1] if stack else -1,
                          tracer.run_id])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        import tomcat.cli as cli
        import tomcat.evaluation as evaluation
        import tomcat.networks as networks
        import tomcat.nn as nn
        import tomcat.training as training

        # corpus, evaluation and checkpoint: called by the CLI commands
        for fn in ("load_documents", "build_vocabulary", "count_documents", "tfidf_transform"):
            self.patch(cli, fn, f"corpus.{fn}")
        self._patch_tfidf(cli)
        self.patch(cli, "build_cooc", "evaluation.build_cooc", after=self._cooc_stored)
        self.patch(cli, "model_coherence", "evaluation.model_coherence")
        self.patch(cli, "load_checkpoint", "checkpoint.load_checkpoint")
        self.patch(cli, "save_checkpoint", "checkpoint.save_checkpoint",
                   after=lambda args, _: self.facts.__setitem__(
                       "checkpoint.bytes", os.path.getsize(args[0])))
        self.patch(cli, "train", TRAIN)
        self._patch_npmi_reads(evaluation)

        # training engine: the globals train() and the phases look up
        self.patch(training, "critic_phase", CRITIC)
        self._patch_mapper(training)
        self._patch_batcher(training)
        self.patch(training, "sample_prior", "networks.sample_prior")
        self.patch(training, "clip_weights", "nn.clip_weights")
        for fn in LOSSES:
            self.patch(training, fn, f"nn.{fn}")

        # networks and layers: methods, looked up on the class
        self.patch(networks.Network, "forward", lambda a: f"networks.{a[0].name}.forward")
        self.patch(networks.Network, "backward", lambda a: f"networks.{a[0].name}.backward")
        for cls_name in LAYER_CLASSES:
            cls = getattr(nn, cls_name)
            after_fwd = self._linear_flops(products=1) if cls_name == "Linear" else None
            after_bwd = self._linear_flops(products=2) if cls_name == "Linear" else None
            self.patch(cls, "forward", f"nn.{cls_name}.forward", after=after_fwd)
            self.patch(cls, "backward", f"nn.{cls_name}.backward", after=after_bwd)
        self.patch(nn.Adam, "step", "nn.Adam.step", after=self._adam_work)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # special wrappers ------------------------------------------------------
    def _patch_batcher(self, training) -> None:
        original = training._EpochBatcher.__dict__["next"]
        tracer = self

        def next_batch(batcher):
            if tracer.iter_span is None:
                tracer.iter_span = tracer.open(ITER)
            idx = tracer.open("training.batch")
            try:
                return original(batcher)
            finally:
                tracer.close(idx)

        training._EpochBatcher.next = next_batch
        self._patches.append((training._EpochBatcher, "next", original))

    def _patch_mapper(self, training) -> None:
        original = training.mapper_phase
        tracer = self

        def mapper_phase(*args, **kwargs):
            idx = tracer.open(MAPPER)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(idx)
                if tracer.iter_span is not None:
                    tracer.close(tracer.iter_span)
                    tracer.iter_span = None

        training.mapper_phase = mapper_phase
        self._patches.append((training, "mapper_phase", original))

    def _patch_tfidf(self, cli) -> None:
        original = cli.tfidf
        tracer = self

        def tfidf(corpus):
            # tracemalloc only around this call: it slows every allocation
            tracemalloc.start()
            idx = tracer.open("corpus.tfidf")
            try:
                result = original(corpus)
            finally:
                tracer.close(idx)
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
            tracer.facts["corpus.tfidf.peak_alloc_mb"] = peak / 2 ** 20
            rows = result.rows
            tracer.facts["corpus.tfidf.density"] = float((rows != 0).sum()) / rows.size
            return result

        cli.tfidf = tfidf
        self._patches.append((cli, "tfidf", original))

    def _patch_npmi_reads(self, evaluation) -> None:
        """Count the distinct co-occurrence pairs a coherence evaluation reads."""
        original = evaluation.npmi_pair
        facts, read = self.facts, self._pairs_read

        def npmi_pair(stats, wi, wj):
            read.add((min(wi, wj), max(wi, wj)))
            facts["evaluation.cooc_pairs_read"] = len(read)
            return original(stats, wi, wj)

        evaluation.npmi_pair = npmi_pair
        self._patches.append((evaluation, "npmi_pair", original))

    def _cooc_stored(self, args, stats) -> None:
        self._pairs_read.clear()
        self.facts["evaluation.cooc_pairs_stored"] = len(stats.pair_doc_counts)

    def _linear_flops(self, products: int):
        """Floating-point operations of a Linear call from its shapes: each
        (batch, in) x (in, out) product is 2 * batch * in * out; forward makes
        one, backward two (weight and input gradients)."""
        def after(args, result):
            if self.iter_span is None:
                return
            layer, batch = args[0], args[1].shape[0]   # forward: x; backward: cache = x
            self.iter_counts["nn.Linear.flop"] += products * 2 * batch * layer.in_dim * layer.out_dim
        return after

    def _adam_work(self, args, result) -> None:
        if self.iter_span is None:
            return
        stepped = [p for p in args[1] if p.grad is not None]
        self.iter_counts["nn.Adam.tensors"] += len(stepped)
        self.iter_counts["nn.Adam.bytes"] += ADAM_BYTES_PER_ENTRY * sum(p.data.size for p in stepped)

    # output ----------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name totals inside training iterations, per-call durations of
        corpus, evaluation and checkpoint spans, and per-iteration phase times."""
        spans = self.spans
        n = len(spans)
        child_sum = [0.0] * n
        iter_of = [-1] * n
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_sum[parent] += end - start
                iter_of[i] = iter_of[parent]
            if name == ITER:
                iter_of[i] = i
        in_iter: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        per_call: dict[str, list[float]] = defaultdict(list)
        phases: dict[int, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            if name == ITER:
                phases[i] = {"iter": dur, CRITIC: 0.0, MAPPER: 0.0, "self": dur - child_sum[i]}
                continue
            if iter_of[i] >= 0:
                agg = in_iter[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child_sum[i]
                if parent == iter_of[i] and name in (CRITIC, MAPPER):
                    phases[parent][name] += dur
            if name.startswith(PER_CALL_PREFIXES):
                per_call[name].append(dur)
        return {
            "iterations": [[p["iter"], p[CRITIC], p[MAPPER], p["self"]] for p in phases.values()],
            "in_iter": dict(in_iter),
            "per_call": dict(per_call),
            "iter_counts": dict(self.iter_counts),
            "facts": dict(self.facts),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("#index\tname\tstart_s\tend_s\tparent\trun_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{run_id}\n")
