"""Batch command-line interface.

Subcommands: ingest, train, topics, infer, classify, eval-coherence, synth.
All regular output is UTF-8 tab-separated on stdout with reals at 9
significant digits; errors go to stderr. Exit codes: 0 success, 1 input or
configuration error, 2 corrupt artifact, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, check_vocabulary, load_checkpoint, save_checkpoint
from .corpus import (
    BLOCK_ROWS,
    CorpusError,
    DocumentFile,
    RowsError,
    Vocabulary,
    build_vocabulary,
    count_documents,
    group_documents,
    load_documents,
    load_rows,
    save_rows,
    tfidf,
    tfidf_transform,
)
from .evaluation import (
    EvaluationError,
    SyntheticSpec,
    build_cooc,
    classify_accuracy,
    format_coherence_report,
    make_synthetic,
    model_coherence,
    synthetic_vocabulary,
    topic_word_ids,
)
from .networks import SamplingError, top_word_ids, topic_word_distributions
from .nn import NonFiniteError
from .training import ConfigError, NonFiniteLossError, TrainConfig, train, write_loss_log

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CORRUPT = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


class ManifestError(ValueError):
    """A data directory's manifest.json is not one that ingest writes."""


def _read_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path} does not hold a JSON object")
    for key in ("n_docs", "n_classes"):
        value = manifest.get(key)
        if type(value) is not int or value < 0:
            raise ManifestError(f"{path}: {key} must be a nonnegative integer, "
                                f"not {value!r}")
    if manifest["n_classes"] > manifest["n_docs"]:
        raise ManifestError(f"{path}: n_classes {manifest['n_classes']} exceeds "
                            f"n_docs {manifest['n_docs']}")
    return manifest


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_blocks_in_heap() -> None:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc serves each block above the mmap threshold with its own mapping
    and unmaps it on free, so every such block is page-faulted afresh. The
    threshold starts at 128 KiB and rises only when a larger mapped block is
    freed, so without the pin the speed of the training loop, whose
    temporaries are 1-2 MB, would depend on what the process freed before
    it. A no-op where the C library has no mallopt.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):   # no C library to load by that name
        return
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * 2 ** 20)
    mallopt(_M_TRIM_THRESHOLD, 64 * 2 ** 20)


def _blocks(source: DocumentFile, labels: list[int] | None = None):
    """The blocks of an open document file, each read by load_documents;
    each block's labels are appended to labels, when given, as it is read."""
    while (docs := load_documents(source)) is not None:
        if labels is not None:
            labels += docs.labels
        yield docs


def cmd_ingest(args) -> int:
    labels = None if args.labels is None else []
    with DocumentFile(args.docs, args.labels) as source:
        blocks = list(_blocks(source, labels))
    vocab = build_vocabulary(blocks, min_count=args.min_count, max_vocab=args.max_vocab)
    n_docs = sum(docs.lengths.size for docs in blocks)
    # a label is a class id, and a corpus has no more classes than documents
    bad = [lab for lab in labels or () if not 0 <= lab < n_docs]
    if bad:
        raise CorpusError(f"label {bad[0]} out of range [0, {n_docs}), "
                          "the number of documents")
    num_classes = (max(labels) + 1) if labels else 0
    corpus = count_documents(blocks, vocab, labels=labels, num_classes=num_classes)
    del blocks   # the word ids
    mat = tfidf(corpus)
    del corpus   # the count rows

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    if Path(args.docs).resolve() != (out / "docs.txt").resolve():
        shutil.copyfile(args.docs, out / "docs.txt")
    save_rows(out / "rows.npz", mat,
              None if labels is None else np.asarray(labels, dtype=np.int64)[mat.kept_docs])
    manifest = {
        "n_docs": n_docs,
        "vocab_size": vocab.size,
        "n_classes": num_classes,
        "dropped_rows": mat.dropped_docs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")
    print(f"n_docs\t{n_docs}")
    print(f"vocab_size\t{vocab.size}")
    print(f"n_classes\t{num_classes}")
    print(f"dropped_rows\t{len(mat.dropped_docs)}")
    return EXIT_OK


def _check_output(path: Path, what: str) -> None:
    """Fail now, not after the whole run, when path cannot be written: its
    directory is missing or it is a directory itself."""
    if path.is_dir():
        raise ConfigError(f"{what} {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"{what} {path}: no directory {path.parent}")


def cmd_train(args) -> int:
    loss_log_path = args.loss_log or (str(args.out) + ".losses.tsv")
    _check_output(Path(args.out), "checkpoint")
    _check_output(Path(loss_log_path), "loss log")
    data_dir = Path(args.data)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise CorpusError(f"{manifest_path} not found; run 'ingest' first")
    manifest = _read_manifest(manifest_path)
    vocab = Vocabulary.load(data_dir / "vocab.txt")
    check_vocabulary(vocab)   # fail now, not when saving after the whole run
    rows_path = data_dir / "rows.npz"
    if not rows_path.exists():
        raise CorpusError(f"{rows_path} not found; the data directory was written "
                          "by an older ingest: re-run 'ingest'")
    num_classes = manifest["n_classes"]
    mat, labels = load_rows(rows_path, vocab.size, manifest["n_docs"], num_classes)
    if args.supervised and labels is None:
        raise ConfigError(f"data directory {data_dir} has no labels")

    config = TrainConfig(
        num_topics=args.topics, hidden=args.hidden, alpha=args.alpha,
        batch_size=args.batch, iterations=args.iters, critic_steps=args.critic_steps,
        clip_c=args.clip, lr_main=args.lr_main, beta1_main=args.beta1_main,
        lr_cls=args.lr_cls, beta1_cls=args.beta1_cls, lambda1_hat=args.lambda1,
        lambda2_hat=args.lambda2, lambda3_hat=args.lambda3,
        supervised=args.supervised, seed=args.seed)
    config.validate()
    for key, value in config.as_dict().items():
        print(f"config\t{key}\t{value}")

    _keep_freed_blocks_in_heap()
    try:
        state = train(mat.csr, config, labels=labels,
                      num_classes=num_classes if args.supervised else None)
    except NonFiniteLossError as exc:
        write_loss_log(exc.records, loss_log_path, abort=str(exc))
        raise

    config_echo = config.as_dict()
    config_echo["data_dir"] = str(data_dir)
    save_checkpoint(
        args.out, vocab=vocab, encoder=state.encoder, generator=state.generator,
        critic_x=state.critic_x, critic_z=state.critic_z, classifier=state.classifier,
        config=config_echo, seed=config.seed, doc_freq=mat.doc_freq,
        train_doc_count=mat.n_docs)
    write_loss_log(state.loss_log, loss_log_path)

    if state.loss_log:
        last = state.loss_log[-1]
        for name in ("adv_x", "adv_z", "cyc_forward", "cyc_backward", "cls",
                     "lambda1", "lambda2", "lambda3", "total"):
            print(f"final\t{name}\t{_fmt(getattr(last, name))}")
    return EXIT_OK


def cmd_topics(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    rows = topic_word_distributions(ckpt.generator)
    for k, row in enumerate(rows):
        ids = top_word_ids(row, args.top_n)
        words = " ".join(ckpt.vocab.tokens[i] for i in ids)
        print(f"{k}\t{words}\t{' '.join(_fmt(p) for p in row[ids])}")
    return EXIT_OK


def _encode_documents(ckpt, docs_path):
    """Topic rows for a document file, one per line. Zero-weight documents,
    blank lines among them, are given the uniform sentinel row and reported
    on stderr by line."""
    with DocumentFile(docs_path, vocab=ckpt.vocab, keep_blank=True) as source:
        z, unusable = _encode(ckpt, _blocks(source))
    _warn_unusable(unusable)
    return z


def _encode(ckpt, blocks):
    """Topic rows for the documents of blocks read with the checkpoint's
    vocabulary, and the positions of those of zero weight, whose row is the
    uniform sentinel: counted, weighted and encoded BLOCK_ROWS documents at a
    time, so only the topic rows outlive a group."""
    rows, unusable, done = [np.zeros((0, ckpt.num_topics))], [], 0
    for group in group_documents(blocks):
        x, valid = tfidf_transform(count_documents([group], ckpt.vocab).csr.toarray(),
                                   ckpt.doc_freq, ckpt.train_doc_count)
        z = np.full((len(x), ckpt.num_topics), 1.0 / ckpt.num_topics)
        if valid.any():
            z[valid], _ = ckpt.encoder.forward(x if valid.all() else x[valid], train=False)
        unusable += (done + np.flatnonzero(~valid)).tolist()
        done += len(x)
        rows.append(z)
    return np.concatenate(rows), unusable


def _warn_unusable(unusable: list[int]) -> None:
    for i in unusable:
        print(f"warning: document {i} has no usable tokens; emitting uniform row",
              file=sys.stderr)


def cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    z = _encode_documents(ckpt, args.docs)
    line = "\t".join(["%.9g"] * ckpt.num_topics) + "\n"   # _fmt's format
    for start in range(0, len(z), BLOCK_ROWS):
        sys.stdout.write("".join([line % tuple(row)
                                  for row in z[start:start + BLOCK_ROWS].tolist()]))
    return EXIT_OK


def cmd_classify(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    if ckpt.classifier is None:
        raise ConfigError("checkpoint was trained unsupervised; cannot classify")
    labels: list[int] = []
    with DocumentFile(args.docs, args.labels, vocab=ckpt.vocab) as source:
        z, unusable = _encode(ckpt, _blocks(source, labels))
    if not labels:
        raise ConfigError(f"{args.docs} holds no document (every line is blank)")
    bad = [lab for lab in labels if not 0 <= lab < ckpt.num_classes]
    if bad:
        raise ConfigError(f"label {bad[0]} out of range [0, {ckpt.num_classes}) "
                          "of the checkpoint's classifier")
    _warn_unusable(unusable)
    print(f"accuracy\t{_fmt(classify_accuracy(ckpt.classifier, z, labels))}")
    return EXIT_OK


def cmd_eval_coherence(args) -> int:
    if args.top_n < 2:
        raise ConfigError("--top-n must be >= 2: topic coherence needs at least 2 words")
    if args.window < 2:
        raise ConfigError("--window must be >= 2")
    ckpt = load_checkpoint(args.ckpt)
    reference = args.reference
    if reference is None:
        data_dir = ckpt.config.get("data_dir")
        candidate = Path(data_dir) / "docs.txt" if data_dir else None
        if candidate is None or not candidate.exists():
            raise ConfigError("no --reference given and the training corpus "
                              "is not available; pass --reference")
        reference = candidate
    word_sets = topic_word_ids(ckpt.generator, args.top_n)
    with DocumentFile(reference, vocab=ckpt.vocab) as source:
        stats = build_cooc(_blocks(source), window_size=args.window, word_sets=word_sets)
    reports, mean = model_coherence(ckpt.generator, ckpt.vocab, stats, n=args.top_n)
    sys.stdout.write(format_coherence_report(reports, mean))
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SyntheticSpec(num_topics=args.k, words_per_topic=args.words_per_topic,
                         num_docs=args.docs, doc_length=args.doc_len,
                         doc_topic_alpha=args.alpha, seed=args.seed)
    corpus, supports = make_synthetic(spec)
    vocab = synthetic_vocabulary(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tokens = np.array(vocab.tokens)
    with (out / "docs.txt").open("w", encoding="utf-8") as fh:
        for row in corpus.counts:
            fh.write(" ".join(np.repeat(tokens, row.astype(np.int64))) + "\n")
    (out / "labels.txt").write_text(
        "\n".join(str(lab) for lab in corpus.labels) + "\n", encoding="utf-8")
    (out / "supports.txt").write_text(
        "\n".join(" ".join(vocab.tokens[w] for w in sup) for sup in supports) + "\n",
        encoding="utf-8")
    print(f"n_docs\t{corpus.n_docs}")
    print(f"vocab_size\t{vocab.size}")
    print(f"n_classes\t{corpus.num_classes}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomcat",
        description="Cycle-consistent adversarial topic modeling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build vocabulary and data directory")
    p.add_argument("--docs", required=True, help="one document per line")
    p.add_argument("--labels", default=None, help="one integer label per line")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-vocab", type=int, default=None)
    p.add_argument("--out", required=True, help="output data directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model on an ingested directory")
    p.add_argument("--data", required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--supervised", action="store_true")
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--critic-steps", type=int, default=5)
    p.add_argument("--clip", type=float, default=0.01)
    p.add_argument("--lr-main", type=float, default=1e-4)
    p.add_argument("--beta1-main", type=float, default=0.5)
    p.add_argument("--lr-cls", type=float, default=1e-3)
    p.add_argument("--beta1-cls", type=float, default=0.9)
    p.add_argument("--lambda1", type=float, default=2.0)
    p.add_argument("--lambda2", type=float, default=0.2)
    p.add_argument("--lambda3", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-log", default=None, help="loss log path "
                   "(default: <ckpt>.losses.tsv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("topics", help="print top words per topic")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("infer", help="print per-document topic distributions")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--docs", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("classify", help="accuracy of the supervised classifier")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--docs", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval-coherence", help="NPMI coherence of the topics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--reference", default=None,
                   help="reference corpus (default: the training corpus)")
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_eval_coherence)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known topics")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--words-per-topic", type=int, required=True)
    p.add_argument("--docs", type=int, required=True)
    p.add_argument("--doc-len", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on bad flags, 0 on --help
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except BrokenPipeError:
        # the consumer stopped reading (e.g. piping into head); keep the
        # interpreter's shutdown flush from erroring too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (CheckpointError, ManifestError, RowsError) as exc:
        _err(str(exc))
        return EXIT_CORRUPT
    except (NonFiniteLossError, NonFiniteError) as exc:
        _err(str(exc))
        return EXIT_NUMERIC
    except MemoryError as exc:   # e.g. a size flag too large to allocate
        _err(str(exc) or "out of memory")
        return EXIT_INPUT
    except (CorpusError, ConfigError, EvaluationError, SamplingError,
            ValueError, OSError) as exc:
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
