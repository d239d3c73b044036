#!/usr/bin/env python3
"""Fresh-process peak RSS of each tomcat command on the 20NG-shaped corpus.

    python3 tools/peak_rss.py [--repeat 1] [--src DIR]

For each corpus size n in SEEDS (1 and 8), writes the documents of
perfbench/ng20corpus.py seeds 0 to n-1 into one file in a temporary
directory, then runs, each in a child process of its own (``python -m
tomcat``, BLAS on one thread):

    ingest --max-vocab 2000, train --topics 20 --iters 30,
    infer, eval-coherence --window 10 (against the training corpus), topics

and prints the child's peak resident set (``ru_maxrss`` as ``os.wait4``
reports it, in MiB), the least of --repeat runs. The package is imported
from --src, by default this checkout's ``src``, so that two checkouts can be
compared with the same script. A command that fails stops the script.

A child's ru_maxrss starts from the resident set of the process that
forked it, so this script imports nothing but the standard library: the
corpora are written by a child of their own (``--write-corpus``), which
imports perfbench/ng20corpus.py and numpy.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("ingest", "train", "infer", "eval-coherence", "topics")
SEEDS = (1, 8)
ITERS = 30


def write_corpus(path: Path, seeds: int) -> None:
    """The documents of ng20corpus seeds 0 to seeds - 1, in one file."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import ng20corpus   # the benchmark's corpus generator, read only

    with path.open("w", encoding="utf-8") as out:
        for seed in range(seeds):
            part = path.with_name(f"part{seed}.txt")
            ng20corpus.write_corpus(ng20corpus.generate(seed), part)
            with part.open(encoding="utf-8") as src:
                shutil.copyfileobj(src, out)
            part.unlink()


def argv_of(command: str, work: Path, docs: Path) -> list[str]:
    data, ckpt = work / "data", work / "model.ckpt"
    return {
        "ingest": ["ingest", "--docs", str(docs), "--max-vocab", "2000", "--out", str(data)],
        "train": ["train", "--data", str(data), "--topics", "20", "--iters", str(ITERS),
                  "--seed", "0", "--out", str(ckpt)],
        "infer": ["infer", "--ckpt", str(ckpt), "--docs", str(docs)],
        "eval-coherence": ["eval-coherence", "--ckpt", str(ckpt), "--window", "10"],
        "topics": ["topics", "--ckpt", str(ckpt)],
    }[command]


def peak_mib(argv: list[str], src: Path) -> float:
    """Run ``python -m tomcat argv`` with stdout discarded; its ru_maxrss in MiB."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-m", "tomcat", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    proc.stderr.close()
    if proc.returncode != 0:
        sys.exit(f"tomcat {' '.join(argv)} exited {proc.returncode}: {err.decode()[-500:]}")
    return usage.ru_maxrss / 1024   # KiB on Linux


def main() -> int:
    if sys.argv[1:2] == ["--write-corpus"]:
        write_corpus(Path(sys.argv[2]), int(sys.argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="peak_rss."))
    table: dict[str, dict[int, float]] = {command: {} for command in COMMANDS}
    try:
        for seeds in SEEDS:
            run = work / f"{seeds}seed"
            run.mkdir()
            docs = run / "docs.txt"
            subprocess.run([sys.executable, __file__, "--write-corpus", str(docs), str(seeds)],
                           check=True)
            for command in COMMANDS:
                table[command][seeds] = min(
                    peak_mib(argv_of(command, run, docs), args.src.resolve())
                    for _ in range(args.repeat))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("command\t" + "\t".join(f"{seeds} seed{'s' * (seeds > 1)}" for seeds in SEEDS))
    for command, row in table.items():
        print(command + "\t" + "\t".join(f"{row[seeds]:.1f}" for seeds in SEEDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
