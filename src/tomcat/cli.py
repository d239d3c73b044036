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
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, check_vocabulary, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusError,
    Vocabulary,
    build_vocabulary,
    count_documents,
    load_documents,
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
)
from .networks import SamplingError, top_words, topic_word_distributions
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


def _load_data_dir(data_dir: Path, want_labels: bool):
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise CorpusError(f"{manifest_path} not found; run 'ingest' first")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    vocab = Vocabulary.load(data_dir / "vocab.txt")
    labels_path = data_dir / "labels.txt"
    has_labels = manifest.get("n_classes", 0) > 0 and labels_path.exists()
    if want_labels and not has_labels:
        raise ConfigError(f"data directory {data_dir} has no labels")
    docs, labels = load_documents(data_dir / "docs.txt",
                                  labels_path if has_labels else None)
    corpus = count_documents(docs, vocab, labels=labels,
                             num_classes=manifest.get("n_classes", 0))
    return vocab, corpus, manifest


def cmd_ingest(args) -> int:
    docs, labels = load_documents(args.docs, args.labels)
    vocab = build_vocabulary(docs, min_count=args.min_count, max_vocab=args.max_vocab)
    num_classes = (max(labels) + 1) if labels else 0
    corpus = count_documents(docs, vocab, labels=labels, num_classes=num_classes)
    mat = tfidf(corpus)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    if Path(args.docs).resolve() != (out / "docs.txt").resolve():
        shutil.copyfile(args.docs, out / "docs.txt")
    if args.labels is not None and Path(args.labels).resolve() != (out / "labels.txt").resolve():
        shutil.copyfile(args.labels, out / "labels.txt")
    manifest = {
        "n_docs": corpus.n_docs,
        "vocab_size": vocab.size,
        "n_classes": num_classes,
        "dropped_rows": mat.dropped_docs,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")
    print(f"n_docs\t{corpus.n_docs}")
    print(f"vocab_size\t{vocab.size}")
    print(f"n_classes\t{num_classes}")
    print(f"dropped_rows\t{len(mat.dropped_docs)}")
    return EXIT_OK


def cmd_train(args) -> int:
    data_dir = Path(args.data)
    vocab, corpus, _ = _load_data_dir(data_dir, want_labels=args.supervised)
    check_vocabulary(vocab)   # fail now, not when saving after the whole run
    mat = tfidf(corpus)
    labels = None
    if args.supervised:
        labels = np.array([corpus.labels[i] for i in mat.kept_docs], dtype=np.int64)

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

    state = train(mat.rows, config, labels=labels,
                  num_classes=corpus.num_classes if args.supervised else None)

    config_echo = config.as_dict()
    config_echo["data_dir"] = str(data_dir)
    save_checkpoint(
        args.out, vocab=vocab, encoder=state.encoder, generator=state.generator,
        critic_x=state.critic_x, critic_z=state.critic_z, classifier=state.classifier,
        config=config_echo, seed=config.seed, doc_freq=mat.doc_freq,
        train_doc_count=mat.n_docs, hidden=config.hidden, num_topics=config.num_topics)
    loss_log_path = args.loss_log or (str(args.out) + ".losses.tsv")
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
    for k in range(rows.shape[0]):
        words = top_words(rows[k], ckpt.vocab, args.top_n)
        probs = sorted(rows[k], reverse=True)[:args.top_n]
        print(f"{k}\t{' '.join(words)}\t{' '.join(_fmt(p) for p in probs)}")
    return EXIT_OK


def _encode_documents(ckpt, docs_path):
    """Topic rows for a document file. Zero-weight documents are given the
    uniform sentinel row and reported on stderr."""
    docs, _ = load_documents(docs_path)
    corpus = count_documents(docs, ckpt.vocab)
    rows, valid = tfidf_transform(corpus.docs, ckpt.num_words,
                                  ckpt.doc_freq, ckpt.train_doc_count)
    z = np.full((rows.shape[0], ckpt.num_topics), 1.0 / ckpt.num_topics)
    if valid.any():
        encoded, _ = ckpt.encoder.forward(rows[valid], train=False)
        z[valid] = encoded
    for i in np.flatnonzero(~valid):
        print(f"warning: document {i} has no usable tokens; emitting uniform row",
              file=sys.stderr)
    return z


def cmd_infer(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    z = _encode_documents(ckpt, args.docs)
    for row in z:
        print("\t".join(_fmt(v) for v in row))
    return EXIT_OK


def cmd_classify(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    if ckpt.classifier is None:
        raise ConfigError("checkpoint was trained unsupervised; cannot classify")
    docs, labels = load_documents(args.docs, args.labels)
    if labels is None:
        raise ConfigError("classify needs a label file")
    z = _encode_documents(ckpt, args.docs)
    probs, _ = ckpt.classifier.forward(z, train=False)
    accuracy = float((probs.argmax(axis=1) == np.asarray(labels)).mean())
    print(f"accuracy\t{_fmt(accuracy)}")
    return EXIT_OK


def cmd_eval_coherence(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    reference = args.reference
    if reference is None:
        data_dir = ckpt.config.get("data_dir")
        candidate = Path(data_dir) / "docs.txt" if data_dir else None
        if candidate is None or not candidate.exists():
            raise ConfigError("no --reference given and the training corpus "
                              "is not available; pass --reference")
        reference = candidate
    docs, _ = load_documents(reference)
    stats = build_cooc(docs, ckpt.vocab, window_size=args.window)
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
    with (out / "docs.txt").open("w", encoding="utf-8") as fh:
        for doc in corpus.docs:
            toks = []
            for wid, cnt in sorted(doc.items()):
                toks.extend([vocab.tokens[wid]] * cnt)
            fh.write(" ".join(toks) + "\n")
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
    except CheckpointError as exc:
        _err(str(exc))
        return EXIT_CORRUPT
    except (NonFiniteLossError, NonFiniteError) as exc:
        _err(str(exc))
        return EXIT_NUMERIC
    except (CorpusError, ConfigError, EvaluationError, SamplingError,
            ValueError, OSError) as exc:
        _err(str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
