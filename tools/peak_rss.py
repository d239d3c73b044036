#!/usr/bin/env python3
"""Fresh-process peak RSS of each tomcat command on the 20NG-shaped corpus.

    python3 tools/peak_rss.py [--repeat 1] [--src DIR]

For each corpus size n in SEEDS (1 and 8), writes the documents of
perfbench/ng20corpus.py seeds 0 to n-1 into one file in a temporary
directory, then runs, each in a child process of its own (``python -m
tomcat``, BLAS on one thread):

    ingest --max-vocab 2000, train --topics 20 --iters 30,
    infer, eval-coherence --window 10 (against the training corpus), topics

and prints two tables, in MiB: the child's peak resident set (``ru_maxrss``
as ``os.wait4`` reports it), the least of --repeat runs, and the peak of
its whole process tree, sampled every TREE_SECONDS from /proc, the largest
of --repeat runs, as a sample can only miss a peak. The package is
imported from --src, by default this checkout's ``src``, so that two
checkouts can be compared with the same script. A command that fails stops
the script.

The tree column adds to the command's resident set (``Rss`` in
/proc/PID/smaps_rollup) the private pages (``Private_Clean`` and
``Private_Dirty``) of every process under it (the readers of a large
document file's spans). A reader is forked from its command and shares its
pages, so a sum of resident sets would count those pages once per process;
the pages a reader has of its own are its private ones. Unlike proportional
set sizes (``Pss``), the figure does not move with what else on the machine
maps the same libraries. A process's ru_maxrss starts from the resident set
of the process it was forked from, so ru_maxrss counts a reader's memory
only where the reader outgrows the command: the tree table is the one that
adds them up. This script imports nothing but the standard library, so that
it adds nothing to a child's ru_maxrss: the corpora are written by a child
of their own (``--write-corpus``), which imports perfbench/ng20corpus.py
and numpy.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("ingest", "train", "infer", "eval-coherence", "topics")
SEEDS = (1, 8)
ITERS = 30
TREE_SECONDS = 0.002


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


def tree_kib(pid: int) -> int:
    """The resident set of process pid plus the private pages of every
    process under it, in KiB. A process that is gone counts nothing."""
    total, stack = 0, [pid]
    while stack:
        proc = Path("/proc", str(stack.pop()))
        try:
            rollup = (proc / "smaps_rollup").read_text()
            children = (proc / "task" / proc.name / "children").read_text().split()
        except OSError:
            continue
        fields = ("Rss:",) if proc.name == str(pid) else ("Private_Clean:", "Private_Dirty:")
        total += sum(int(line.split()[1]) for line in rollup.splitlines()
                     if line.startswith(fields))
        stack += [int(child) for child in children]
    return total


def peak_mib(argv: list[str], src: Path) -> tuple[float, float]:
    """Run ``python -m tomcat argv`` with stdout discarded; its ru_maxrss and
    the sampled peak of its process tree, in MiB."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-m", "tomcat", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    tree, done = [0], threading.Event()

    def sample() -> None:
        while not done.wait(TREE_SECONDS):
            tree[0] = max(tree[0], tree_kib(proc.pid))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        done.set()
        sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    proc.stderr.close()
    if proc.returncode != 0:
        sys.exit(f"tomcat {' '.join(argv)} exited {proc.returncode}: {err.decode()[-500:]}")
    return usage.ru_maxrss / 1024, tree[0] / 1024   # KiB on Linux


def main() -> int:
    if sys.argv[1:2] == ["--write-corpus"]:
        write_corpus(Path(sys.argv[2]), int(sys.argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="peak_rss."))
    # (ru_maxrss, tree) of each command and corpus size
    table: dict[str, dict[int, tuple[float, float]]] = {command: {} for command in COMMANDS}
    try:
        for seeds in SEEDS:
            run = work / f"{seeds}seed"
            run.mkdir()
            docs = run / "docs.txt"
            subprocess.run([sys.executable, __file__, "--write-corpus", str(docs), str(seeds)],
                           check=True)
            for command in COMMANDS:
                runs = [peak_mib(argv_of(command, run, docs), args.src.resolve())
                        for _ in range(args.repeat)]
                table[command][seeds] = (min(r[0] for r in runs), max(r[1] for r in runs))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for column, title in enumerate(("ru_maxrss", "process tree")):
        print(f"{title}\t" + "\t".join(f"{seeds} seed{'s' * (seeds > 1)}" for seeds in SEEDS))
        for command, row in table.items():
            print(command + "\t" + "\t".join(f"{row[seeds][column]:.1f}" for seeds in SEEDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
