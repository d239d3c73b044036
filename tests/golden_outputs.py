"""The sha256 of every output of one fixed command sequence, the golden
outputs that tests/test_golden.py compares with tests/golden/outputs.json.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_outputs.py [--write]

In an empty temporary directory, through cli.main in this one process and
with relative paths (a checkpoint records its data directory), it runs
SEQUENCE: synth on the acceptance spec, ingest with labels, train 60
iterations unsupervised and --supervised, topics, infer, classify and
eval-coherence. It then writes seed 0 of the benchmark's 20NG-shaped
corpus (perfbench/ng20corpus.py, imported read-only) to ng20/docs.txt and
runs NG20_SEQUENCE on it: ingest --max-vocab 2000, train 10 iterations,
topics, infer and eval-coherence at windows 2 and 10. That file is 8.3 MB,
so infer and eval-coherence read it in two spans. Last it runs
MIXED_SEQUENCE on mixed/docs.txt, the same lines with the line ends of
MIXED_ENDS in turn, a whitespace-only line every 97 lines and a non-ASCII
token every 389 (write_mixed_corpus), also read in two spans: ingest
--max-vocab 2000, and infer and eval-coherence at window 10 with the ng20
checkpoint; infer's stderr is hashed too, as its warnings place the
whitespace-only lines. It prints a JSON object: numpy's version and BLAS
build, and the sha256 of each command's stdout (and of that stderr) and of
each file under the directory. With --write it records that object in
golden/outputs.json instead, to re-base the golden outputs after a change
made on purpose.

Checkpoint bytes depend on the BLAS thread count, so run it with one BLAS
thread, as the test does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from tomcat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEQUENCE = [
    ("synth", ["synth", "--k", "5", "--words-per-topic", "20", "--docs", "2000",
               "--doc-len", "50", "--alpha", "0.05", "--seed", "13", "--out", "raw"]),
    ("ingest", ["ingest", "--docs", "raw/docs.txt", "--labels", "raw/labels.txt",
                "--out", "data"]),
    ("train", ["train", "--data", "data", "--topics", "5", "--iters", "60",
               "--out", "model.ckpt"]),
    ("train --supervised", ["train", "--data", "data", "--topics", "5", "--iters", "60",
                            "--supervised", "--out", "supervised.ckpt"]),
    ("topics", ["topics", "--ckpt", "model.ckpt"]),
    ("infer", ["infer", "--ckpt", "model.ckpt", "--docs", "raw/docs.txt"]),
    ("classify", ["classify", "--ckpt", "supervised.ckpt", "--docs", "raw/docs.txt",
                  "--labels", "raw/labels.txt"]),
    ("eval-coherence", ["eval-coherence", "--ckpt", "model.ckpt"]),
]
NG20_SEQUENCE = [
    ("ng20 ingest", ["ingest", "--docs", "ng20/docs.txt", "--max-vocab", "2000",
                     "--out", "ng20/data"]),
    ("ng20 train", ["train", "--data", "ng20/data", "--topics", "20", "--iters", "10",
                    "--out", "ng20/model.ckpt"]),
    ("ng20 topics", ["topics", "--ckpt", "ng20/model.ckpt"]),
    ("ng20 infer", ["infer", "--ckpt", "ng20/model.ckpt", "--docs", "ng20/docs.txt"]),
    ("ng20 eval-coherence --window 2", ["eval-coherence", "--ckpt", "ng20/model.ckpt",
                                        "--window", "2"]),
    ("ng20 eval-coherence --window 10", ["eval-coherence", "--ckpt", "ng20/model.ckpt",
                                         "--window", "10"]),
]
MIXED_SEQUENCE = [
    ("mixed ingest", ["ingest", "--docs", "mixed/docs.txt", "--max-vocab", "2000",
                      "--out", "mixed/data"]),
    ("mixed infer", ["infer", "--ckpt", "ng20/model.ckpt", "--docs", "mixed/docs.txt"]),
    ("mixed eval-coherence --window 10", ["eval-coherence", "--ckpt", "ng20/model.ckpt",
                                          "--reference", "mixed/docs.txt", "--window", "10"]),
]
# every line end of universal newlines, and three that only str.splitlines cuts at
MIXED_ENDS = ("\n", "\r\n", "\r", "\x0c", "\x85", "\u2028")


def build() -> dict:
    """numpy's version and the BLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def write_ng20_corpus(path: Path) -> None:
    """Seed 0 of the benchmark's 20NG-shaped corpus."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import ng20corpus   # the benchmark's corpus generator, read only
    finally:
        sys.path.remove(str(PERFBENCH))
    ng20corpus.write_corpus(ng20corpus.generate(0), path)


def write_mixed_corpus(source: Path, path: Path) -> None:
    """The lines of source with the line ends of MIXED_ENDS in turn, a
    whitespace-only line added every 97 lines and a non-ASCII token every
    389."""
    lines = []
    for i, line in enumerate(source.read_text(encoding="utf-8").splitlines()):
        if i % 97 == 96:
            lines.append(" \t")
        lines.append(f"{line} \u00c9t\u00e9{i % 5}" if i % 389 == 388 else line)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("".join(line + MIXED_ENDS[i % len(MIXED_ENDS)]
                             for i, line in enumerate(lines)).encode("utf-8"))


def run(sequence: list, hashes: dict, stderr: tuple[str, ...] = ()) -> None:
    """Run each command of sequence, recording the sha256 of its stdout, and
    of its stderr for the commands named in stderr."""
    for name, argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name} exited with {code}: {err.getvalue()}")
        hashes[f"{name} stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if name in stderr:
            hashes[f"{name} stderr"] = hashlib.sha256(err.getvalue().encode()).hexdigest()


def outputs() -> dict:
    """The sha256 of each command's stdout ("<name> stdout") and of each file
    the sequences write (its path, relative to the directory they ran in)."""
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            run(SEQUENCE, hashes)
            write_ng20_corpus(Path("ng20", "docs.txt"))
            run(NG20_SEQUENCE, hashes)
            write_mixed_corpus(Path("ng20", "docs.txt"), Path("mixed", "docs.txt"))
            run(MIXED_SEQUENCE, hashes, stderr=("mixed infer",))
            for path in sorted(Path().rglob("*")):
                if path.is_file():
                    hashes[path.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return hashes


if __name__ == "__main__":
    record = {"build": build(), "outputs": outputs()}
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    else:
        json.dump(record, sys.stdout, indent=2)
