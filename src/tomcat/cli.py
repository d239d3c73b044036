"""Batch command-line interface.

Subcommands: ingest, train, topics, infer, classify, eval-coherence, synth.
All regular output is UTF-8 tab-separated on stdout with reals at 9
significant digits; errors go to stderr. Exit codes: 0 success, 1 input or
configuration error, 2 corrupt artifact, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import fields
from functools import cache, partial
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
    SyntheticSpec,
    build_cooc,
    classify_accuracy,
    format_coherence_report,
    make_synthetic,
    model_coherence,
    synthetic_vocabulary,
    topic_word_ids,
)
from .fileio import write_atomic
from .networks import SamplingError, top_word_ids, topic_word_distributions
from .nn import NonFiniteError, one_blas_thread
from .training import (
    LOSS_LOG_FIELDS,
    ConfigError,
    NonFiniteLossError,
    TrainConfig,
    train,
    write_loss_log,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CORRUPT = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


class DataDirError(ValueError):
    """A data directory's manifest.json or vocab.txt is not one that ingest
    writes."""


def _read_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise DataDirError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataDirError(f"{path} does not hold a JSON object")
    for key in ("n_docs", "vocab_size", "n_classes"):
        value = manifest.get(key)
        if type(value) is not int or value < 0:
            raise DataDirError(f"{path}: {key} must be a nonnegative integer, "
                               f"not {value!r}")
    if manifest["n_classes"] > manifest["n_docs"]:
        raise DataDirError(f"{path}: n_classes {manifest['n_classes']} exceeds "
                           f"n_docs {manifest['n_docs']}")
    return manifest


def _read_vocabulary(path: Path, size: int) -> Vocabulary:
    """The vocabulary of a data directory, whose manifest gives it size
    tokens; a missing file raises OSError."""
    try:
        vocab = Vocabulary.load(path)
    except ValueError as exc:   # undecodable text (UnicodeDecodeError) among them
        raise DataDirError(f"{path} is not a vocabulary ingest writes: {exc}") from exc
    if vocab.size != size:
        raise DataDirError(f"{path} holds {vocab.size} tokens, not the manifest's "
                           f"vocab_size {size}")
    return vocab


def _blocks(source: DocumentFile, labels: list[int] | None = None):
    """The blocks of an open document file, each read by load_documents;
    each block's labels are appended to labels, when given, as it is read."""
    while (docs := load_documents(source)) is not None:
        if labels is not None:
            labels += docs.labels
        yield docs


def _popped(blocks: list):
    """The blocks in order, each dropped from the list as it is taken, so
    that only the taker holds a block it has been given."""
    blocks.reverse()
    while blocks:
        yield blocks.pop()


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
    counts = count_documents(_popped(blocks), vocab)
    mat = tfidf(counts)
    del counts

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a directory without a manifest is refused by train, so a run that
    # fails below never leaves the old manifest over the new files
    (out / "manifest.json").unlink(missing_ok=True)
    vocab.save(out / "vocab.txt")
    if Path(args.docs).resolve() != (out / "docs.txt").resolve():
        shutil.copyfile(args.docs, out / "docs.txt")
    save_rows(out / "rows.bin", mat,
              None if labels is None else np.asarray(labels, dtype=np.int64)[mat.kept_docs])
    manifest = {
        "n_docs": n_docs,
        "vocab_size": vocab.size,
        "n_classes": num_classes,
        "dropped_rows": mat.dropped_docs,
    }
    write_atomic(out / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
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
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    loss_log_path = args.loss_log or (str(args.out) + ".losses.tsv")
    _check_output(Path(args.out), "checkpoint")
    _check_output(Path(loss_log_path), "loss log")
    if Path(loss_log_path).resolve() == Path(args.out).resolve():
        raise ConfigError(f"the loss log {loss_log_path} would overwrite the checkpoint")
    data_dir = Path(args.data)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise CorpusError(f"{manifest_path} not found; run 'ingest' first")
    manifest = _read_manifest(manifest_path)
    vocab = _read_vocabulary(data_dir / "vocab.txt", manifest["vocab_size"])
    check_vocabulary(vocab)   # fail now, not when saving after the whole run
    rows_path = data_dir / "rows.bin"
    if not rows_path.exists():
        raise CorpusError(f"{rows_path} not found; the data directory was written "
                          "by an older ingest: re-run 'ingest'")
    num_classes = manifest["n_classes"]
    mat, labels = load_rows(rows_path, vocab.size, manifest["n_docs"], num_classes)
    if args.supervised and labels is None:
        raise ConfigError(f"data directory {data_dir} has no labels")

    for key, value in config.as_dict().items():
        print(f"config\t{key}\t{value}")

    try:
        state = train(mat.csr, config, labels=labels,
                      num_classes=num_classes if args.supervised else None)
    except (NonFiniteLossError, SamplingError) as exc:
        write_loss_log(exc.records, loss_log_path, abort=str(exc))
        raise

    # the log first: the record of the run survives a failed save
    write_loss_log(state.loss_log, loss_log_path)
    config_echo = config.as_dict()
    config_echo["data_dir"] = str(data_dir)
    save_checkpoint(
        args.out, vocab=vocab, encoder=state.encoder, generator=state.generator,
        critic_x=state.critic_x, critic_z=state.critic_z, classifier=state.classifier,
        config=config_echo, seed=config.seed, doc_freq=mat.doc_freq,
        train_doc_count=mat.n_docs)

    if state.loss_log:
        last = state.loss_log[-1]
        for name in LOSS_LOG_FIELDS[1:]:
            print(f"final\t{name}\t{_fmt(getattr(last, name))}")
    return EXIT_OK


def _check_top_n(top_n: int, low: int, ckpt) -> None:
    if not low <= top_n <= ckpt.vocab.size:
        raise ConfigError(f"--top-n must lie in [{low}, {ckpt.vocab.size}] for a checkpoint "
                          f"of {ckpt.vocab.size} words, not {top_n}")


def cmd_topics(args) -> int:
    ckpt = load_checkpoint(args.ckpt, networks=("G",))
    _check_top_n(args.top_n, 1, ckpt)
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
        z, unusable = _encode(ckpt, source)
    _warn_unusable(unusable)
    return z


def _encode(ckpt, source: DocumentFile, labels: list[int] | None = None):
    """Topic rows for the documents of a file opened with the checkpoint's
    vocabulary, and the positions of those of zero weight, whose row is the
    uniform sentinel. Each span is encoded where it is read (_encode_span),
    and the spans' rows are joined in order; the documents' labels are
    appended to labels, when given."""
    rows, unusable, done = [np.zeros((0, ckpt.num_topics))], [], 0
    for (z, invalid), span_labels in source.map_spans(partial(_encode_span, ckpt)):
        unusable += (done + invalid).tolist()
        done += len(z)
        rows.append(z)
        if labels is not None:
            labels += span_labels
    return np.concatenate(rows), unusable


def _encode_span(ckpt, blocks):
    """Topic rows for the documents of blocks, and the positions among them
    of those of zero weight: counted, weighted and encoded BLOCK_ROWS
    documents at a time, so only the topic rows outlive a group. Each group
    is weighed into one zero (BLOCK_ROWS, V) array, made once, which E
    encodes whole, a short group's rows padded with zero rows; the group's
    entries are cleared after it. So every product has BLOCK_ROWS rows and
    runs on one BLAS thread (nn.one_blas_thread), and a row depends on
    its document alone: a product over fewer rows, or split over threads,
    may sum in another order."""
    x = np.zeros((BLOCK_ROWS, ckpt.vocab.size))
    rows, invalid, done = [np.zeros((0, ckpt.num_topics))], [], 0
    with one_blas_thread():
        for group in group_documents(blocks):
            counts = count_documents([group], ckpt.vocab)[0]
            n = counts.shape[0]
            _, valid = tfidf_transform(counts, ckpt.doc_freq, ckpt.train_doc_count, out=x[:n])
            z = ckpt.encoder.forward(x, train=False)[0][:n]
            z[~valid] = 1.0 / ckpt.num_topics
            x[np.repeat(np.arange(n), np.diff(counts.indptr)), counts.indices] = 0.0
            invalid.append(done + np.flatnonzero(~valid))
            done += n
            rows.append(z)
    return np.concatenate(rows), np.concatenate([np.zeros(0, dtype=np.int64)] + invalid)


def _warn_unusable(unusable: list[int]) -> None:
    for i in unusable:
        print(f"warning: document {i} has no usable tokens; emitting uniform row",
              file=sys.stderr)


def cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.ckpt, networks=("E",))
    z = _encode_documents(ckpt, args.docs)
    line = "\t".join(["%.9g"] * ckpt.num_topics) + "\n"   # _fmt's format
    for start in range(0, len(z), BLOCK_ROWS):
        sys.stdout.write("".join([line % tuple(row)
                                  for row in z[start:start + BLOCK_ROWS].tolist()]))
    return EXIT_OK


def cmd_classify(args) -> int:
    ckpt = load_checkpoint(args.ckpt, networks=("E", "C"))
    if ckpt.classifier is None:
        raise ConfigError("checkpoint was trained unsupervised; cannot classify")
    labels: list[int] = []
    with DocumentFile(args.docs, args.labels, vocab=ckpt.vocab) as source:
        z, unusable = _encode(ckpt, source, labels)
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
    if not 2 <= args.window < 2**63:   # numpy takes it as a signed 64-bit int
        raise ConfigError(f"--window must lie in [2, 2**63), not {args.window}")
    ckpt = load_checkpoint(args.ckpt, networks=("G",))
    _check_top_n(args.top_n, 2, ckpt)   # coherence scores word pairs
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
    reports, mean = model_coherence(ckpt.vocab, stats, word_sets)
    sys.stdout.write(format_coherence_report(reports, mean))
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.doc_length >= 2**63:   # numpy takes it as a signed 64-bit int
        raise ConfigError(f"--doc-len must be below 2**63, not {args.doc_length}")
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    counts, labels, supports = make_synthetic(spec)
    vocab = synthetic_vocabulary(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tokens = np.array(vocab.tokens)
    with (out / "docs.txt").open("w", encoding="utf-8") as fh:
        # a row's stored entries are in column order, as the words are written
        for start, stop in zip(counts.indptr[:-1].tolist(), counts.indptr[1:].tolist()):
            fh.write(" ".join(np.repeat(tokens[counts.indices[start:stop]],
                                        counts.data[start:stop].astype(np.int64))) + "\n")
    (out / "labels.txt").write_text(
        "\n".join(str(lab) for lab in labels) + "\n", encoding="utf-8")
    (out / "supports.txt").write_text(
        "\n".join(" ".join(vocab.tokens[w] for w in sup) for sup in supports) + "\n",
        encoding="utf-8")
    print(f"n_docs\t{counts.shape[0]}")
    print(f"vocab_size\t{vocab.size}")
    print(f"n_classes\t{spec.num_topics}")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was, and main() may run many times in one process."""
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
    # each flag that sets a config field is named (dest) after it, and shown
    # in --help by its own name (metavar)
    p.add_argument("--data", required=True)
    p.add_argument("--topics", dest="num_topics", metavar="TOPICS", type=int, required=True)
    p.add_argument("--supervised", action="store_true")
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    p.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int,
                   default=TrainConfig.batch_size)
    p.add_argument("--iters", dest="iterations", metavar="ITERS", type=int,
                   default=TrainConfig.iterations)
    p.add_argument("--critic-steps", type=int, default=TrainConfig.critic_steps)
    p.add_argument("--clip", dest="clip_c", metavar="CLIP", type=float,
                   default=TrainConfig.clip_c)
    p.add_argument("--lr-main", type=float, default=TrainConfig.lr_main)
    p.add_argument("--beta1-main", type=float, default=TrainConfig.beta1_main)
    p.add_argument("--lr-cls", type=float, default=TrainConfig.lr_cls)
    p.add_argument("--beta1-cls", type=float, default=TrainConfig.beta1_cls)
    for k in (1, 2, 3):
        p.add_argument(f"--lambda{k}", dest=f"lambda{k}_hat", metavar=f"LAMBDA{k}",
                       type=float, default=getattr(TrainConfig, f"lambda{k}_hat"))
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
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
    p.add_argument("--k", dest="num_topics", metavar="K", type=int, required=True)
    p.add_argument("--words-per-topic", type=int, required=True)
    p.add_argument("--docs", dest="num_docs", metavar="DOCS", type=int, required=True)
    p.add_argument("--doc-len", dest="doc_length", metavar="DOC_LEN", type=int, required=True)
    p.add_argument("--alpha", dest="doc_topic_alpha", metavar="ALPHA", type=float,
                   default=SyntheticSpec.doc_topic_alpha)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
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
    except (CheckpointError, DataDirError, RowsError) as exc:
        _err(str(exc))
        return EXIT_CORRUPT
    except NonFiniteError as exc:   # NonFiniteLossError among them
        _err(str(exc))
        return EXIT_NUMERIC
    except MemoryError as exc:   # e.g. a size flag too large to allocate
        _err(str(exc) or "out of memory")
        return EXIT_INPUT
    # CorpusError, ConfigError and EvaluationError are ValueErrors
    except (SamplingError, ValueError, OSError) as exc:
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
