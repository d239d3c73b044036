"""One phase of a benchmark run, in a process of its own: ``setup``, ``timed``
or ``tail``. Each phase gets its own process so that its peak RSS is its own.

Stages are run in-process through ``tomcat.cli.main`` with stdout and stderr
captured, one after another. Every stage exit and every output check is an
operation, counted once per phase, stage kind and check however often the
stage runs; it fails if any of its calls fails.

    python3 perfbench/worker.py REQUEST.json RESULT.json
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import ng20corpus
from tracer import Tracer

NG20_READ = "ng20-read"

TRAIN_ITERS = 60
READ_SETUP_ITERS = 10          # the ng20-read set-up checkpoint
FINGERPRINT_ITERS = 10
FINGERPRINT_SEED = 0          # corpus seed; the training seed is 0 too
MAX_VOCAB = str(ng20corpus.KEPT_VOCAB)
WINDOW = 10
REFERENCE_DOCS = 500           # ng20-train: coherence against the first 500 documents
SETUP_REPEATS = 3
OVERHEAD_PAIRS = 3
OVERHEAD_ITERS = 15


class Probe:
    """Records what the timed metrics need from inside a stage: the wall time
    of the ``train()`` call and the state it returns, and the topic rows that
    ``infer`` encodes. One wrapper per stage call."""

    def __init__(self, cli):
        self.train_start = self.train_s = 0.0
        self.state = None
        self.encoded = None
        train, encode = cli.train, cli._encode_documents

        def timed_train(*args, **kwargs):
            self.train_start = time.perf_counter()
            self.state = train(*args, **kwargs)
            self.train_s = time.perf_counter() - self.train_start
            return self.state

        def captured_encode(*args, **kwargs):
            self.encoded = encode(*args, **kwargs)
            return self.encoded

        cli.train = timed_train
        cli._encode_documents = captured_encode


@dataclass
class Stage:
    code: int
    start: float
    seconds: float
    out: str
    err: str


def sha256(path: Path) -> str | None:
    """Hex digest of a file, None when a failed stage did not write it."""
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@contextlib.contextmanager
def inside(directory: Path):
    """Run stages from one directory with relative paths: a checkpoint echoes
    its data directory, so its bytes depend on the path it was given."""
    directory.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


class Phase:
    def __init__(self, request: dict):
        self.workload = request["workload"]
        self.seed = request["seed"]
        # main() runs the phase from the work directory, so every path a
        # checkpoint echoes is relative and its bytes repeat in any checkout
        self.work = Path(".")
        self.request = request
        self.trace = bool(request["trace"])
        self.tracer = Tracer() if self.trace else None
        self.tracing = False
        import tomcat.cli as cli
        self.cli = cli
        self.probe = Probe(cli)
        self.samples: dict[str, list[float]] = {}
        # one operation per step, stage kind and check: repeated calls and
        # rounds fold into it, so the count does not grow with the machine's speed
        self.ops: dict[str, list] = {}
        self.info: dict = {}
        self.step, self.index, self.call = request["phase"], None, None
        # NPMI recounts, run when the phase ends: (reference, report) -> operation
        self.pending_npmi: dict[tuple[Path, str], str] = {}
        self.stage_seconds = 0.0   # in stages since the last reset, checks excluded

    # bookkeeping -----------------------------------------------------------
    def sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def label(self, kind: str) -> str:
        """Where a call ran, e.g. ``timed2.readout.topics.7``: the span run id."""
        index = "" if self.index is None else self.index
        call = "" if self.call is None else f".{self.call}"
        return f"{self.step}{index}.{kind}{call}"

    def op_name(self, kind: str, check: str) -> str:
        return f"{self.step}.{kind} {check}"

    def op(self, name: str, error: str | None, where: str = "") -> None:
        """Record an operation; one that has failed once stays failed."""
        entry = self.ops.setdefault(name, [name, True, ""])
        if error is not None and entry[1]:
            entry[1:] = [False, f"{where}: {error}" if where else error]

    def check(self, kind: str, check: str, test) -> None:
        """Run ``test()``, which returns None or what is wrong, as an operation."""
        try:
            error = test()
        except Exception as exc:  # a check that cannot run has failed
            error = f"{type(exc).__name__}: {exc}"
        self.op(self.op_name(kind, check), error, self.label(kind))

    def stage(self, kind: str, *argv: str) -> Stage:
        gc.collect()   # no stage pays for collecting the garbage of the one before
        tracer = self.tracer if self.tracing else None
        if tracer:
            tracer.run_id = self.label(kind)
            tracer.open(f"cli.{argv[0]}")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except Exception:  # a crash is a failed stage, not a failed benchmark
            err.write(traceback.format_exc())
            code = -1
        seconds = time.perf_counter() - start
        self.stage_seconds += seconds
        if tracer:
            tracer.close_open_spans()
        stage = Stage(code, start, seconds, out.getvalue(), err.getvalue())
        self.op(self.op_name(kind, "exits 0"),
                None if code == 0 else f"exit {code}: {stage.err.strip()[-300:]}",
                self.label(kind))
        return stage

    @contextlib.contextmanager
    def traced(self, on: bool):
        if not (on and self.tracer):
            yield
            return
        self.tracer.install()
        self.tracing = True
        try:
            yield
        finally:
            self.tracing = False
            self.tracer.uninstall()

    # paths -----------------------------------------------------------------
    @property
    def setup_dir(self) -> Path:
        return self.work / f"setup{SETUP_REPEATS - 1}"

    @property
    def raw_docs(self) -> Path:
        return self.setup_dir / "raw" / "docs.txt"

    @property
    def model(self) -> Path:
        return self.work / "timed" / "model.ckpt"

    # stages with their checks ------------------------------------------------
    def make_corpus(self, raw: Path, seed: int) -> None:
        start = time.perf_counter()
        docs = ng20corpus.generate(seed)
        ng20corpus.write_corpus(docs, raw / "docs.txt")
        self.stage_seconds += time.perf_counter() - start

    def ingest(self, raw: Path, out: Path, record: bool = False) -> Stage:
        shutil.rmtree(out, ignore_errors=True)
        stage = self.stage("ingest", "ingest", "--docs", str(raw / "docs.txt"),
                           "--max-vocab", MAX_VOCAB, "--out", str(out))
        if stage.code == 0 and record:
            self.sample("ingest_s", stage.seconds)
        if stage.code == 0:
            def manifest_matches():
                manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
                n_docs = checks.count_documents(raw / "docs.txt")
                vocab = len((out / "vocab.txt").read_text(encoding="utf-8").splitlines())
                if manifest["n_docs"] == n_docs and manifest["vocab_size"] == vocab:
                    return None
                return f"manifest {manifest}, {n_docs} docs, {vocab} words"
            self.check("ingest", "manifest matches the corpus", manifest_matches)
            reference = self.setup_dir / "data" / "vocab.txt"
            if record and reference.exists():
                self.check("ingest", "vocabulary equals the set-up's",
                           lambda: None if sha256(out / "vocab.txt") == sha256(reference)
                           else "vocabulary differs")
        return stage

    def train(self, kind: str, data: Path, out: Path, iters: int,
              record: bool = True) -> Stage:
        stage = self.stage(kind, "train", "--data", str(data), "--topics", "20",
                           "--iters", str(iters), "--seed", "0", "--out", str(out))
        if stage.code == 0 and record:
            self.sample("train_stage_s", stage.seconds)
            self.sample("train_iters_per_s", iters / self.probe.train_s)
            self.sample("cli.train.load_s", self.probe.train_start - stage.start)
        if stage.code == 0:
            self.check(kind, "loss log", lambda: checks.check_loss_log(
                Path(str(out) + ".losses.tsv"), iters, stage.out))
            self.check(kind, "reloaded checkpoint gives identical simplex topics",
                       lambda: self.reload_error(out))
        return stage

    def reload_error(self, ckpt: Path) -> str | None:
        from tomcat.checkpoint import load_checkpoint
        from tomcat.networks import topic_word_distributions
        trained = topic_word_distributions(self.probe.state.generator)
        reloaded = topic_word_distributions(load_checkpoint(ckpt).generator)
        if np.array_equal(trained, reloaded) and checks.on_simplex(reloaded):
            return None
        return "topics differ after reload or leave the simplex"

    def infer(self, ckpt: Path, docs: Path) -> Stage:
        stage = self.stage("infer", "infer", "--ckpt", str(ckpt), "--docs", str(docs))
        if stage.code == 0:
            z = self.probe.encoded
            n_docs = checks.count_documents(docs)
            self.sample("infer_docs_per_s", n_docs / stage.seconds)
            self.check("infer", "one simplex row per document", lambda: None if (
                len(stage.out.splitlines()) == n_docs == z.shape[0] and checks.on_simplex(z))
                else "bad rows")
        return stage

    def readout(self, ckpt: Path) -> Stage:
        """The ``topics`` stage."""
        from tomcat.checkpoint import load_checkpoint
        from tomcat.networks import top_words, topic_word_distributions
        stage = self.stage("readout", "topics", "--ckpt", str(ckpt))

        def top_words_match():
            loaded = load_checkpoint(ckpt)
            rows = topic_word_distributions(loaded.generator)
            expected = [" ".join(top_words(r, loaded.vocab, 10)) for r in rows]
            printed = [line.split("\t")[1] for line in stage.out.splitlines()]
            return None if printed == expected and checks.on_simplex(rows) else "mismatch"
        if stage.code == 0:
            self.sample("readout_s", stage.seconds)
            self.check("readout", "top words match the checkpoint", top_words_match)
        return stage

    def repeated(self, run_stage) -> None:
        """Run a stage back to back at least twice and for at least a second,
        at most 25 times; a stage whose first call takes over four seconds
        runs once. The first call of a stage in a process pays page faults
        that later calls do not, and one call of a short stage is within the
        jitter of the machine."""
        total = 0.0
        try:
            for n in range(25):
                self.call = n
                seconds = run_stage().seconds
                total += seconds
                if (n == 0 and seconds > 4.0) or (n >= 1 and total >= 1.0):
                    return
        finally:
            self.call = None

    def coherence(self, ckpt: Path, reference: Path) -> Stage:
        stage = self.stage("eval-coherence", "eval-coherence", "--ckpt", str(ckpt),
                           "--reference", str(reference), "--window", str(WINDOW))
        if stage.code == 0:
            self.sample("coherence_s", stage.seconds)
            _, mean = checks.parse_coherence(stage.out)
            self.info["npmi_mean"] = mean
            self.pending_npmi[(reference, stage.out)] = self.label("eval-coherence")
        return stage

    def recount_npmi(self) -> None:
        """Check every distinct coherence report against the independent
        recount; one operation per phase."""
        docs: dict[Path, list[list[str]]] = {}
        for (ref, report), where in self.pending_npmi.items():
            try:
                if ref not in docs:
                    docs[ref] = checks.read_documents(ref)
                error = checks.check_coherence(report, docs[ref], WINDOW)
            except Exception as exc:  # a check that cannot run has failed
                error = f"{type(exc).__name__}: {exc}"
            self.op(self.op_name("eval-coherence", "NPMI in [-1, 1] and equal to the recount"),
                    error, where)
        self.pending_npmi.clear()

    # phases ----------------------------------------------------------------
    def setup(self) -> None:
        with self.traced(True):
            for i in range(SETUP_REPEATS):
                self.index = i
                self.stage_seconds = 0.0
                with inside(self.work / f"setup{i}"):
                    self.make_corpus(Path("raw"), self.seed)
                    self.ingest(Path("raw"), Path("data"))
                    if self.workload == NG20_READ:
                        self.train("train", Path("data"), Path("model.ckpt"), READ_SETUP_ITERS)
                self.sample("setup_s", self.stage_seconds)   # without the checks
        self.index = None
        names = ["raw/docs.txt", "data/vocab.txt"]
        if self.workload == NG20_READ:
            names.append("model.ckpt")
        digests = {tuple(sha256(self.work / f"setup{i}" / n) for n in names)
                   for i in range(SETUP_REPEATS)}
        deterministic = len(digests) == 1 and None not in next(iter(digests))
        self.op("setup is deterministic", None if deterministic else "set-ups differ")
        self.info["corpus_shape"] = ng20corpus.shape(checks.read_documents(self.raw_docs))
        self.info["env"] = environment()

    def timed(self) -> None:
        seconds = self.request["seconds"]
        begin = time.perf_counter()
        rnd = 0
        with self.traced(True):
            while rnd == 0 or (time.perf_counter() - begin < seconds
                               and time.time() < self.request["deadline"]):
                self.index = rnd
                self.timed_stages()
                if rnd == 0:
                    # the peak of the timed stages alone: no stage the workload
                    # does not time and no NPMI recount has run in this process yet
                    self.info["peak_rss_mb"] = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
                self.other_stages()
                rnd += 1
        self.index = None
        self.info["rounds"] = rnd
        if self.trace:
            self.info["overhead_rates"] = self.overhead_rates()

    def overhead_rates(self) -> dict[str, list[float]]:
        """train() rates untraced and traced, alternating back to back so the
        machine's drift cancels, for ``trace.overhead_pct``."""
        rates: dict[str, list[float]] = {"untraced": [], "traced": []}
        out = self.work / "overhead" / "model.ckpt"
        out.parent.mkdir(parents=True, exist_ok=True)
        iters = OVERHEAD_ITERS
        self.step = "overhead"
        for pair in range(OVERHEAD_PAIRS):
            self.index = pair
            for key in rates:
                with self.traced(key == "traced"):
                    stage = self.train(f"train.{key}", self.setup_dir / "data", out, iters,
                                       record=False)
                if stage.code == 0:
                    rates[key].append(iters / self.probe.train_s)
        self.step, self.index = self.request["phase"], None
        return rates

    def timed_stages(self) -> None:
        """One round of the stages the workload times."""
        setup = self.setup_dir
        if self.workload == NG20_READ:
            ckpt = setup / "model.ckpt"
            self.repeated(lambda: self.ingest(setup / "raw", self.work / "timed" / "data",
                                              record=True))
            self.repeated(lambda: self.readout(ckpt))
            self.repeated(lambda: self.infer(ckpt, self.raw_docs))
            self.repeated(lambda: self.coherence(ckpt, setup / "data" / "docs.txt"))
            return
        self.model.parent.mkdir(parents=True, exist_ok=True)
        self.train("train", setup / "data", self.model, TRAIN_ITERS)
        self.repeated(lambda: self.readout(self.model))

    def other_stages(self) -> None:
        """One measurement of each stage the workload does not time, so that
        every metric has samples spread over the run. The readout, a stage of
        a few tens of milliseconds, is measured again after each of them: the
        machine's fast and slow spells last seconds, so one burst of readouts
        after train often sees only one of them."""
        if self.workload == NG20_READ:
            return
        setup = self.setup_dir
        for run_stage in (
                lambda: self.ingest(setup / "raw", self.work / "timed" / "data", record=True),
                lambda: self.infer(self.model, self.raw_docs),
                lambda: self.coherence(self.model, self.reference)):
            self.repeated(run_stage)
            self.repeated(lambda: self.readout(self.model))

    @property
    def reference(self) -> Path:
        """ng20-train scores coherence against its first 500 documents."""
        reference = self.work / "reference.txt"
        if not reference.exists():
            lines = self.raw_docs.read_text(encoding="utf-8").splitlines(keepends=True)
            reference.write_text("".join(lines[:REFERENCE_DOCS]), encoding="utf-8")
        return reference

    def tail(self) -> None:
        """The behaviour fingerprint: sha256 of a fixed-seed checkpoint and loss log."""
        d = self.work / "fingerprint"
        self.step = "fingerprint"
        with inside(d):
            self.make_corpus(Path("raw"), FINGERPRINT_SEED)
            self.ingest(Path("raw"), Path("data"))
            stage = self.train("train", Path("data"), Path("model.ckpt"), FINGERPRINT_ITERS,
                               record=False)
        if stage.code == 0:
            self.info["fingerprint"] = {
                "checkpoint_sha256": sha256(d / "model.ckpt"),
                "loss_log_sha256": sha256(d / "model.ckpt.losses.tsv"),
            }
        self.info["fingerprint_corpus_shape"] = ng20corpus.shape(
            checks.read_documents(d / "raw" / "docs.txt"))

    def result(self) -> dict:
        self.recount_npmi()
        out = {"samples": self.samples, "ops": list(self.ops.values()), "info": self.info,
               "trace": None}
        if self.tracer and self.tracer.spans:
            out["trace"] = self.tracer.summary()
            name = f"{self.workload}-s{self.seed}-{self.request['phase']}.tsv"
            self.tracer.write(Path(self.request["out"]) / "spans" / name)
        return out


def environment() -> dict:
    np_config = np.show_config(mode="dicts")
    blas = np_config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {k: os.environ.get(k, "") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    request = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import tomcat
    src = Path(request["root"]) / "src"
    if Path(tomcat.__file__).resolve().parent.parent != src.resolve():
        print(f"tomcat imported from {tomcat.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.chdir(request["work"])
    phase = Phase(request)
    getattr(phase, request["phase"])()
    Path(sys.argv[2]).write_text(json.dumps(phase.result(), allow_nan=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
