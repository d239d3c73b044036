"""Cross-check of the tracer's per-layer shares against cProfile on ng20-train.

Trains the ng20-train shape (seed-0 corpus, V=2000, K=20) twice in one
process, once under the outside-in tracer and once under cProfile, and prints
each layer method's share of the ``train()`` call by both measures. Run from
the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/profile_check.py
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import inspect
import pstats
import tempfile
import time
from pathlib import Path

import numpy as np

import ng20corpus
from tracer import Tracer

METHODS = [("nn", cls, fn) for cls in ("Linear", "LeakyReLU", "BatchNorm", "Softmax")
           for fn in ("forward", "backward")] + [("nn", "Adam", "step")]
ITERS = 40
FUNCTIONS = [("training", "critic_phase"), ("training", "mapper_phase"),
             ("nn", "clip_weights"), ("networks", "sample_prior")]


def training_inputs(directory: Path):
    """TF-IDF rows of the seed-0 corpus, as the train stage computes them."""
    from tomcat import cli
    from tomcat.corpus import tfidf
    docs = ng20corpus.generate(seed=0)
    ng20corpus.write_corpus(docs, directory / "raw" / "docs.txt")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["ingest", "--docs", str(directory / "raw" / "docs.txt"),
                         "--max-vocab", str(ng20corpus.KEPT_VOCAB), "--out",
                         str(directory / "data")])
    if code != 0:
        raise SystemExit(f"ingest failed with exit code {code}")
    _, corpus, _ = cli._load_data_dir(directory / "data", want_labels=False)
    return tfidf(corpus).rows


def code_key(obj) -> tuple[str, int, str]:
    code = inspect.unwrap(obj).__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def main() -> None:
    import tomcat.networks as networks
    import tomcat.nn as nn
    import tomcat.training as training
    from tomcat.training import TrainConfig
    modules = {"nn": nn, "training": training, "networks": networks}

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        rows = training_inputs(Path(tmp))
    config = TrainConfig(num_topics=20, iterations=ITERS, seed=0)

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    tracer.open("training.train")   # iteration spans attach below this one
    training.train(rows, config)
    tracer.close_open_spans()
    traced_s = time.perf_counter() - start
    tracer.uninstall()
    summary = tracer.summary()
    in_iter = summary["in_iter"]

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.runcall(training.train, rows, config)
    profiled_s = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats   # key -> (cc, nc, tottime, cumtime, callers)

    untraced_start = time.perf_counter()
    training.train(rows, config)
    plain_s = time.perf_counter() - untraced_start

    print(f"train() of {ITERS} iterations at V={rows.shape[1]}: plain {plain_s:.3f} s, "
          f"traced {traced_s:.3f} s, cProfile {profiled_s:.3f} s")
    print(f"{'span':28s} {'traced share':>12s} {'cProfile share':>14s}")
    names = [(f"{m}.{c}.{f}", getattr(getattr(modules[m], c), f)) for m, c, f in METHODS]
    names += [(f"{m}.{f}", getattr(modules[m], f)) for m, f in FUNCTIONS]
    for name, obj in names:
        traced_total = in_iter.get(name, [0, 0.0, 0.0])[1]
        profiled_total = stats.get(code_key(obj), (0, 0, 0.0, 0.0))[3]
        print(f"{name:28s} {100 * traced_total / traced_s:11.1f}% "
              f"{100 * profiled_total / profiled_s:13.1f}%")
    iters = summary["iterations"]
    print(f"iterations traced: {len(iters)}; mean {1e3 * np.mean([i[0] for i in iters]):.1f} ms "
          f"(plain {1e3 * plain_s / ITERS:.1f} ms)")


if __name__ == "__main__":
    main()
