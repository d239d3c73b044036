import argparse
import contextlib
import errno
import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
import zlib
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from test_corpus import (
    children,
    csr_of,
    force_spans,
    oracle_count_documents,
    oracle_count_matrix,
    oracle_load_documents,
    oracle_tfidf,
)
import tomcat.corpus as corpus_module
import whole_file
from conftest import csr_from_dense
from test_evaluation import oracle_cooc
from tomcat import checkpoint, cli
from tomcat.checkpoint import load_checkpoint
from tomcat.cli import main
from tomcat.corpus import (BLOCK_ROWS, CorpusError, CsrRows, DocumentFile, RowsError,
                           TfidfMatrix, Vocabulary, load_rows, save_rows, tfidf_transform)
from tomcat.evaluation import (
    SyntheticSpec,
    format_coherence_report,
    model_coherence,
    topic_word_ids,
)
from tomcat.networks import build_networks, network_table
from tomcat.training import ConfigError, TrainConfig


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic corpus, an ingested data directory, and two trained models."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--k", "3", "--words-per-topic", "4", "--docs", "150",
                 "--doc-len", "30", "--alpha", "0.05", "--seed", "5",
                 "--out", str(root / "raw")]) == 0
    assert main(["ingest", "--docs", str(root / "raw" / "docs.txt"),
                 "--labels", str(root / "raw" / "labels.txt"),
                 "--min-count", "1", "--out", str(root / "data")]) == 0
    assert main(["train", "--data", str(root / "data"), "--topics", "3",
                 "--hidden", "16", "--batch", "16", "--iters", "30",
                 "--seed", "7", "--out", str(root / "model.ckpt")]) == 0
    assert main(["train", "--data", str(root / "data"), "--topics", "3",
                 "--hidden", "16", "--batch", "16", "--iters", "30",
                 "--seed", "7", "--supervised",
                 "--out", str(root / "model_sup.ckpt")]) == 0
    return root


class TestIngest:
    def test_manifest_contents(self, workdir):
        manifest = json.loads((workdir / "data" / "manifest.json").read_text())
        assert manifest["n_docs"] == 150
        assert manifest["vocab_size"] == 12
        assert manifest["n_classes"] == 3
        assert isinstance(manifest["dropped_rows"], list)

    def test_missing_file_names_path(self, capsys, tmp_path):
        code = main(["ingest", "--docs", str(tmp_path / "absent.txt"),
                     "--out", str(tmp_path / "d")])
        captured = capsys.readouterr()
        assert code == 1
        assert "absent.txt" in captured.err
        assert captured.out == ""

    def test_misaligned_labels(self, capsys, tmp_path):
        (tmp_path / "docs.txt").write_text("a b\nc d\n")
        (tmp_path / "labels.txt").write_text("0\n")
        code = main(["ingest", "--docs", str(tmp_path / "docs.txt"),
                     "--labels", str(tmp_path / "labels.txt"),
                     "--out", str(tmp_path / "d")])
        assert code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("label", ["-1", "2", str(10 ** 15), str(2 ** 70)])
    def test_label_outside_document_count_rejected(self, capsys, tmp_path, label):
        # a label names a class, and two documents hold at most two classes
        (tmp_path / "docs.txt").write_text("a b\n\nc d\n")
        (tmp_path / "labels.txt").write_text(f"1\n7\n{label}\n")
        code = main(["ingest", "--docs", str(tmp_path / "docs.txt"),
                     "--labels", str(tmp_path / "labels.txt"),
                     "--out", str(tmp_path / "d")])
        captured = capsys.readouterr()
        assert code == 1
        assert f"label {label} out of range [0, 2)" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "d").exists()

    def test_counting_releases_each_block(self, workdir, tmp_path, capsys, monkeypatch):
        # ingest reads every block to rank its vocabulary, then hands each
        # to count_documents and drops it: when count_documents asks for a
        # block, only the one it has just counted is still alive
        monkeypatch.setattr(corpus_module, "READ_BYTES", 64)
        count_documents, alive, refs = cli.count_documents, [], []

        def watched(blocks, vocab):
            def taken():
                for docs in blocks:
                    refs.append(weakref.ref(docs.ids))
                    yield docs
                    del docs
                    alive.append(sum(ref() is not None for ref in refs))
            return count_documents(taken(), vocab)

        monkeypatch.setattr(cli, "count_documents", watched)
        assert main(["ingest", "--docs", str(workdir / "raw" / "docs.txt"),
                     "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        assert len(refs) > 10
        assert max(alive) == 1, alive

    @pytest.mark.parametrize("max_vocab", ["0", "-1"])
    def test_max_vocab_below_one_rejected(self, workdir, capsys, tmp_path, max_vocab):
        code = main(["ingest", "--docs", str(workdir / "raw" / "docs.txt"),
                     "--max-vocab", max_vocab, "--out", str(tmp_path / "d")])
        captured = capsys.readouterr()
        assert code == 1
        assert "max_vocab" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_same_seed_byte_identical_checkpoints(self, workdir, tmp_path):
        for name in ("a.ckpt", "b.ckpt"):
            assert main(["train", "--data", str(workdir / "data"), "--topics", "3",
                         "--hidden", "8", "--batch", "16", "--iters", "5",
                         "--seed", "13", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_config_echo_has_defaults(self, workdir, tmp_path, capsys):
        assert main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "1", "--seed", "1",
                     "--out", str(tmp_path / "echo.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "config\tlambda1_hat\t2.0" in out
        assert "config\tlambda2_hat\t0.2" in out
        assert "config\tlambda3_hat\t1.0" in out
        assert "config\tclip_c\t0.01" in out
        assert "config\tcritic_steps\t5" in out
        assert "config\thidden\t100" in out
        assert "final\ttotal\t" in out

    def test_required_flags_only_echo_the_library_defaults(self, workdir, tmp_path, capsys,
                                                          monkeypatch):
        given = []

        def stop(rows, config, **kwargs):   # the default 5000 iterations are not run
            given.append(config)
            raise ConfigError("stopped before training")

        monkeypatch.setattr("tomcat.cli.train", stop)
        code = main(["train", "--data", str(workdir / "data"), "--topics", "3",
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        defaults = TrainConfig(num_topics=3)
        assert given == [defaults]
        assert capsys.readouterr().out.splitlines() == [
            f"config\t{key}\t{value}" for key, value in defaults.as_dict().items()]

    def test_loss_log_written(self, workdir):
        log = Path(str(workdir / "model.ckpt") + ".losses.tsv")
        lines = log.read_text().strip().split("\n")
        assert lines[0].startswith("#iteration")
        assert len(lines) == 31

    def test_unsavable_token_rejected_before_training(self, tmp_path, capsys, monkeypatch):
        long_token = "a" * 70000    # token lengths are stored as u16
        docs = tmp_path / "docs.txt"
        docs.write_text("".join(f"{long_token} word{i % 3} filler\n" for i in range(20)),
                        encoding="utf-8")
        assert main(["ingest", "--docs", str(docs), "--min-count", "1",
                     "--out", str(tmp_path / "data")]) == 0

        def must_not_run(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("tomcat.cli.train", must_not_run)
        code = main(["train", "--data", str(tmp_path / "data"), "--topics", "2",
                     "--batch", "4", "--iters", "1", "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "70000 UTF-8 bytes" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_supervised_without_labels(self, capsys, tmp_path):
        (tmp_path / "docs.txt").write_text("a b\nb c\na c\nc c\n" * 8)
        assert main(["ingest", "--docs", str(tmp_path / "docs.txt"),
                     "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        code = main(["train", "--data", str(tmp_path / "d"), "--topics", "2",
                     "--batch", "8", "--iters", "1", "--supervised",
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 1
        assert "labels" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--clip", "--lr-main", "--lr-cls",
                                      "--beta1-main", "--beta1-cls", "--lambda1",
                                      "--lambda2", "--lambda3"])
    def test_non_finite_flag_rejected(self, workdir, tmp_path, capsys, flag, value):
        code = main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "1", flag, value,
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag", ["--beta1-main", "--beta1-cls"])
    def test_beta1_zero_trains(self, workdir, tmp_path, capsys, flag):
        # Adam without first-moment averaging
        assert main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--hidden", "8", "--batch", "16", "--iters", "2", "--supervised",
                     flag, "0", "--out", str(tmp_path / "m.ckpt")]) == 0
        assert f"config\t{flag[2:].replace('-', '_')}\t0.0" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["-0.1", "1", "nan"])
    @pytest.mark.parametrize("flag", ["--beta1-main", "--beta1-cls"])
    def test_beta1_outside_unit_interval_rejected(self, workdir, tmp_path, capsys, flag,
                                                  value):
        code = main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "1", "--supervised", flag, value,
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "beta1" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
    def test_seed_out_of_range_rejected(self, workdir, tmp_path, capsys, seed):
        # a checkpoint stores the seed as a signed 64-bit integer
        code = main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "1", "--seed", seed,
                     "--out", str(tmp_path / "m.ckpt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: seed must lie in [0, 2**63), not {seed}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    BAD_FLAGS = {("--batch", "1"): "batch_size must be >= 2",
                 ("--seed", "-1"): "seed must lie in [0, 2**63)",
                 ("--clip", "0"): "clip_c must be positive",
                 ("--lr-main", "nan"): "lr_main must be finite",
                 ("--beta1-main", "1"): "beta1 values must lie in [0, 1)",
                 ("--iters", "-1"): "iterations must be >= 0"}

    @pytest.mark.parametrize("data", ["ingested", "no-manifest"])
    @pytest.mark.parametrize("flag, value", BAD_FLAGS)
    def test_bad_flag_rejected_before_reading_the_data(self, workdir, tmp_path, capsys,
                                                       monkeypatch, data, flag, value):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the data directory was read")

        for name in ("_read_manifest", "_read_vocabulary", "load_rows", "train"):
            monkeypatch.setattr(f"tomcat.cli.{name}", must_not_run)
        data_dir = workdir / "data" if data == "ingested" else tmp_path
        code = main(["train", "--data", str(data_dir), "--topics", "2", "--batch", "16",
                     "--iters", "1", flag, value, "--out", str(tmp_path / "m.ckpt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert self.BAD_FLAGS[flag, value] in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("manifest", [
        b"{", b"\xff\xfe", b"[1, 2]", b'{"n_classes": "3"}', b'{"n_classes": -1}',
        b'{"n_classes": 1.5}', b'{"n_docs": 150}',
        b'{"n_docs": 150, "n_classes": 1000000000000001}',
        b'{"n_docs": 150, "n_classes": 3, "vocab_size": "12"}',
        # deeper than the JSON decoder's recursion limit
        pytest.param(b"[" * 200000 + b"]" * 200000, id="nested 200000 deep"),
    ])
    def test_malformed_manifest_is_exit_2(self, workdir, tmp_path, capsys, manifest):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "manifest.json").write_bytes(manifest)
        code = main(["train", "--data", str(data), "--topics", "2", "--batch", "16",
                     "--iters", "1", "--out", str(tmp_path / "m.ckpt")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "manifest.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["missing directory", "a directory",
                                       "loss log in a missing directory",
                                       "loss log is the checkpoint"])
    def test_unwritable_output_rejected_before_reading(self, workdir, tmp_path, capsys,
                                                       monkeypatch, where):
        def must_not_run(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("tomcat.cli.train", must_not_run)
        monkeypatch.setattr("tomcat.cli.load_rows", must_not_run)
        out = {"missing directory": ["--out", str(tmp_path / "absent" / "m.ckpt")],
               "a directory": ["--out", str(tmp_path)],
               "loss log in a missing directory": [
                   "--out", str(tmp_path / "m.ckpt"),
                   "--loss-log", str(tmp_path / "absent" / "m.tsv")],
               "loss log is the checkpoint": [
                   "--out", str(tmp_path / "m.ckpt"), "--loss-log", str(tmp_path / "m.ckpt")]
               }[where]
        code = main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "1"] + out)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--hidden", "--topics"])
    def test_size_too_large_to_allocate_is_exit_1(self, workdir, tmp_path, capsys, flag):
        sizes = {"--topics": "2", "--hidden": "4", flag: str(10 ** 12)}
        code = main(["train", "--data", str(workdir / "data"), "--topics", sizes["--topics"],
                     "--hidden", sizes["--hidden"], "--batch", "16", "--iters", "1",
                     "--out", str(tmp_path / "m.ckpt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_manifest_is_exit_1(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "manifest.json").unlink()
        code = main(["train", "--data", str(data), "--topics", "2", "--batch", "16",
                     "--iters", "1", "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "run 'ingest' first" in capsys.readouterr().err


def _train_args(data, tmp_path):
    return ["train", "--data", str(data), "--topics", "2", "--hidden", "4", "--batch", "16",
            "--iters", "0", "--out", str(tmp_path / "m.ckpt")]


def _rewrite(path, change):
    """Read the arrays of a rows.bin file, let change edit them, and write
    them back through save_rows, so the damage sits behind a header and a
    CRC that hold. "num_words" is the column count save_rows records."""
    mat, labels = load_rows(path, 12, 150, 3)
    arrays = {"indptr": mat.csr.indptr, "indices": mat.csr.indices, "data": mat.csr.data,
              "doc_freq": mat.doc_freq, "kept_docs": np.array(mat.kept_docs), "labels": labels}
    arrays = {name: array.copy() for name, array in arrays.items()}
    arrays["num_words"] = 12
    change(arrays)
    save_rows(path, TfidfMatrix(csr=CsrRows(arrays["indptr"], arrays["indices"], arrays["data"],
                                            arrays["num_words"]),
                                kept_docs=arrays["kept_docs"], dropped_docs=[],
                                doc_freq=arrays["doc_freq"], n_docs=150), arrays["labels"])


HEADER_FIELDS = ("n_rows", "nnz", "num_words", "labelled")


def _reheader(path, change):
    """Let change map the header's counts (a dict) to new values for some of
    them, write those into the rows.bin file and mend its CRC."""
    blob = bytearray(path.read_bytes())
    header = dict(zip(HEADER_FIELDS, np.frombuffer(blob, "<i8", 4, 8).tolist()))
    for name, value in change(header).items():
        at = 8 + 8 * HEADER_FIELDS.index(name)
        blob[at:at + 8] = value.to_bytes(8, "little", signed=True)
    blob[-4:] = zlib.crc32(blob[:-4]).to_bytes(4, "little")
    path.write_bytes(bytes(blob))


def _set(name, index, value):
    def change(arrays):
        arrays[name][index] = value
    return change


def _swap_first_two_columns(arrays):
    start = int(np.flatnonzero(np.diff(arrays["indptr"]) > 1)[0])
    at = arrays["indptr"][start]
    arrays["indices"][[at, at + 1]] = arrays["indices"][[at + 1, at]]


def _drop_last(*names):
    def change(arrays):
        for name in names:
            arrays[name] = arrays[name][:-1]
    return change


# the file's length disagrees with the counts in its header
LENGTH = "disagree with the file's"
# violations of the rows.bin layout behind a CRC that holds, each with a
# part of the message of the check it must reach; the corpus has 150
# documents, 12 words and 3 classes
ROWS_DAMAGE = {
    # arrays, written by save_rows
    "indptr not monotone": (_rewrite, _set("indptr", 2, 10 ** 6), "strictly increasing"),
    "indptr one too long": (_rewrite, lambda a: a.update(
        indptr=np.append(a["indptr"], a["indptr"][-1])), LENGTH),
    "indptr one too short": (_rewrite, _drop_last("indptr"), LENGTH),
    "empty last row": (_rewrite, lambda a: a.update(
        indptr=np.append(a["indptr"], a["indptr"][-1]),
        kept_docs=np.append(a["kept_docs"], 149), labels=np.append(a["labels"], 0)),
        "strictly increasing"),
    "indptr short of the entries": (_rewrite, _drop_last("indptr", "kept_docs", "labels"),
                                    "run from 0"),
    "indptr not from 0": (_rewrite, lambda a: a.update(indptr=a["indptr"] + 1), "run from 0"),
    "index equal to V": (_rewrite, _set("indices", 5, 12), "column index"),
    "negative index": (_rewrite, _set("indices", 5, -1), "column index"),
    "columns out of order": (_rewrite, _swap_first_two_columns, "columns must increase"),
    "data NaN": (_rewrite, _set("data", 3, np.nan), "finite and positive"),
    "data infinite": (_rewrite, _set("data", 3, np.inf), "finite and positive"),
    "data zero": (_rewrite, _set("data", 3, 0.0), "finite and positive"),
    "data negative": (_rewrite, _set("data", 3, -0.5), "finite and positive"),
    "indices one short": (_rewrite, _drop_last("indices"), LENGTH),
    "data one short": (_rewrite, _drop_last("data"), LENGTH),
    "doc_freq one short": (_rewrite, _drop_last("doc_freq"), LENGTH),
    "doc_freq above n_docs": (_rewrite, _set("doc_freq", 0, 151), "doc_freq"),
    "kept ids one short": (_rewrite, _drop_last("kept_docs"), LENGTH),
    "kept ids one too many": (_rewrite, lambda a: a.update(
        kept_docs=np.append(a["kept_docs"], 149)), LENGTH),
    "kept ids repeated": (_rewrite, _set("kept_docs", 1, 0), "kept row ids"),
    "labels one short": (_rewrite, _drop_last("labels"), LENGTH),
    "label outside the classes": (_rewrite, _set("labels", 0, 3), "a label lies outside"),
    "num_words not the vocabulary's": (_rewrite, lambda a: a.update(
        num_words=13, doc_freq=np.append(a["doc_freq"], 0)), "not the vocabulary's 12"),
    # header counts, written over a clean file
    "labelled 2": (_reheader, lambda h: {"labelled": 2}, "labelled must be 0 or 1"),
    "labelled 0 with labels": (_reheader, lambda h: {"labelled": 0}, LENGTH),
    "n_rows one more": (_reheader, lambda h: {"n_rows": h["n_rows"] + 1}, LENGTH),
    "nnz one fewer": (_reheader, lambda h: {"nnz": h["nnz"] - 1}, LENGTH),
    # the words make up the length: only the sign check stops it there
    "n_rows -1": (_reheader, lambda h: {"n_rows": -1,
                                        "num_words": h["num_words"] + 3 * h["n_rows"] + 3},
                  LENGTH),
    "num_words one more": (_reheader, lambda h: {"num_words": h["num_words"] + 1}, LENGTH),
}


# corruptions of vocab.txt, applied to its lines; the corpus has 12 words
VOCAB_DAMAGE = {
    "repeated token": lambda lines: lines[:-1] + lines[:1],
    "not UTF-8": lambda lines: [b"\xff" + lines[0]] + lines[1:],
    "one token short": lambda lines: lines[:-1],
    "one token too many": lambda lines: lines + [b"extra"],
}


class TestDataDirectory:
    def test_rows_file_equals_dense_tfidf(self, workdir):
        # the layout of rows.bin, written out from the dense TF-IDF that the
        # oracle builds from the corpus
        docs, labels = oracle_load_documents(workdir / "raw" / "docs.txt",
                                             workdir / "raw" / "labels.txt")
        vocab = Vocabulary.load(workdir / "data" / "vocab.txt")
        rows, kept, _, doc_freq = oracle_tfidf(oracle_count_documents(docs, vocab), vocab.size)
        indptr, indices, data = csr_of(rows)
        want = whole_file.rows_file(indptr, indices, data, vocab.size, doc_freq, kept,
                                    np.array(labels)[kept])
        assert (workdir / "data" / "rows.bin").read_bytes() == want
        assert sorted(p.name for p in (workdir / "data").iterdir()) == [
            "docs.txt", "manifest.json", "rows.bin", "vocab.txt"]

    def test_train_reads_no_document(self, workdir, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "docs.txt").unlink()
        monkeypatch.setattr("tomcat.cli.load_documents", lambda *a: pytest.fail("read"))
        assert main(_train_args(data, tmp_path) + ["--supervised"]) == 0

    @pytest.mark.parametrize("damage", sorted(VOCAB_DAMAGE))
    def test_corrupt_vocabulary_is_exit_2(self, workdir, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        lines = (data / "vocab.txt").read_bytes().splitlines()
        (data / "vocab.txt").write_bytes(b"\n".join(VOCAB_DAMAGE[damage](lines)) + b"\n")
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert "vocab.txt" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_vocabulary_is_exit_1(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "vocab.txt").unlink()
        assert main(_train_args(data, tmp_path)) == 1
        assert "vocab.txt" in capsys.readouterr().err

    def test_failed_reingest_leaves_no_directory_to_train_on(self, workdir, tmp_path, capsys,
                                                             monkeypatch):
        data = tmp_path / "data"
        assert main(["ingest", "--docs", str(workdir / "raw" / "docs.txt"),
                     "--out", str(data)]) == 0
        # another corpus with as many words, so its vocab.txt matches the old
        # manifest: only a missing manifest stops train
        other = tmp_path / "other.txt"
        other.write_text("".join(f"x{i % 4} y{i // 2 % 4} z{i // 3 % 4}\n" for i in range(40)),
                         encoding="utf-8")

        def no_space(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "save_rows", no_space)
        assert main(["ingest", "--docs", str(other), "--out", str(data)]) == 1
        assert not (data / "manifest.json").exists()
        assert main(_train_args(data, tmp_path)) == 1
        assert "run 'ingest' first" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_rows_file_is_exit_1(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "rows.bin").unlink()
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert "rows.bin" in captured.err and "'ingest'" in captured.err
        assert not (tmp_path / "m.ckpt").exists()

    def test_only_an_old_rows_npz_is_exit_1(self, workdir, tmp_path, capsys):
        # the format before rows.bin is not read: ingest must run again
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        mat, labels = load_rows(data / "rows.bin", 12, 150, 3)
        with (data / "rows.npz").open("wb") as fh:
            np.savez(fh, indptr=mat.csr.indptr, indices=mat.csr.indices, data=mat.csr.data,
                     doc_freq=mat.doc_freq, kept_docs=np.array(mat.kept_docs), labels=labels)
        (data / "rows.bin").unlink()
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert "rows.bin" in captured.err and "older ingest" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()

    def test_rows_file_of_an_older_ingest_is_exit_1(self, workdir, tmp_path, capsys):
        # TCROWS01: the same header and trailer, int64 column ids between
        # indptr and data; its CRC holds, so only ingest can mend it
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        mat, labels = load_rows(data / "rows.bin", 12, 150, 3)
        arrays = [mat.csr.indptr, mat.csr.indices, mat.csr.data, mat.doc_freq,
                  mat.kept_docs, labels]
        old = (b"TCROWS01" + np.array([len(mat.kept_docs), mat.csr.indices.size, 12, 1],
                                      "<i8").tobytes()
               + b"".join(np.asarray(a, "<f8" if k == 2 else "<i8").tobytes()
                          for k, a in enumerate(arrays)))
        (data / "rows.bin").write_bytes(old + zlib.crc32(old).to_bytes(4, "little"))
        with pytest.raises(CorpusError, match="older ingest"):
            load_rows(data / "rows.bin", 12, 150, 3)
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert "rows.bin" in captured.err and "re-run 'ingest'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()
        # a damaged one is corrupt, as a damaged file of this layout is
        (data / "rows.bin").write_bytes(old + b"\0\0\0\0")
        assert main(_train_args(data, tmp_path)) == 2

    @pytest.mark.parametrize("content", ["empty", "wrong magic", "truncated", "header only"])
    def test_unreadable_rows_file_is_exit_2(self, workdir, tmp_path, capsys, content):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        clean = (data / "rows.bin").read_bytes()
        (data / "rows.bin").write_bytes({
            "empty": b"",
            "wrong magic": b"TOMCAT01" + clean[8:],   # a checkpoint's
            "truncated": clean[:len(clean) // 2],
            "header only": clean[:40],
        }[content])
        with pytest.raises(RowsError):
            load_rows(data / "rows.bin", 12, 150, 3)
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 2
        assert "rows.bin" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("damage", sorted(ROWS_DAMAGE))
    def test_malformed_rows_file_is_exit_2(self, workdir, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        write, change, what = ROWS_DAMAGE[damage]
        write(data / "rows.bin", change)
        with pytest.raises(RowsError, match=what):
            load_rows(data / "rows.bin", 12, 150, 3)
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert "rows.bin" in captured.err and what in captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()

    def test_byte_flips_are_exit_2(self, workdir, tmp_path, capsys):
        # every byte of the header and of the CRC, and 200 bytes of the
        # arrays: the magic or the CRC-32 catches each
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        path = data / "rows.bin"
        clean = path.read_bytes()
        rng = np.random.default_rng(2024)
        positions = [*range(40), *range(len(clean) - 4, len(clean)),
                     *rng.choice(np.arange(40, len(clean) - 4), size=200, replace=False)]
        for pos in positions:
            blob = bytearray(clean)
            blob[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
            path.write_bytes(bytes(blob))
            assert main(_train_args(data, tmp_path)) == 2, pos
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "m.ckpt").exists()


class TestTopics:
    def test_topic_lines(self, workdir, capsys):
        assert main(["topics", "--ckpt", str(workdir / "model.ckpt"),
                     "--top-n", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            topic_id, words, probs = line.split("\t")
            assert len(words.split(" ")) == 4
            assert len(probs.split(" ")) == 4

    def test_deterministic(self, workdir, capsys):
        main(["topics", "--ckpt", str(workdir / "model.ckpt")])
        first = capsys.readouterr().out
        main(["topics", "--ckpt", str(workdir / "model.ckpt")])
        assert capsys.readouterr().out == first

    def test_untrained_model_topics_deterministic(self, workdir, tmp_path, capsys):
        # iterations=0 leaves the seeded initialization untouched
        for name in ("u1.ckpt", "u2.ckpt"):
            assert main(["train", "--data", str(workdir / "data"), "--topics", "3",
                         "--hidden", "8", "--batch", "16", "--iters", "0",
                         "--seed", "21", "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        main(["topics", "--ckpt", str(tmp_path / "u1.ckpt")])
        first = capsys.readouterr().out
        main(["topics", "--ckpt", str(tmp_path / "u2.ckpt")])
        assert capsys.readouterr().out == first
        assert len(first.strip().split("\n")) == 3


class TestInfer:
    def test_rows_sum_to_one(self, workdir, capsys):
        assert main(["infer", "--ckpt", str(workdir / "model.ckpt"),
                     "--docs", str(workdir / "raw" / "docs.txt")]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 150
        for line in lines[:20]:
            vals = [float(v) for v in line.split("\t")]
            assert len(vals) == 3
            assert abs(sum(vals) - 1.0) < 1e-6

    def test_unknown_tokens_get_uniform_row(self, workdir, tmp_path, capsys):
        (tmp_path / "docs.txt").write_text("qqq zzz yyy\n")
        assert main(["infer", "--ckpt", str(workdir / "model.ckpt"),
                     "--docs", str(tmp_path / "docs.txt")]) == 0
        captured = capsys.readouterr()
        vals = [float(v) for v in captured.out.strip().split("\t")]
        np.testing.assert_allclose(vals, 1 / 3, atol=1e-9)
        assert "uniform" in captured.err


    def test_one_row_per_input_line(self, workdir, tmp_path, capsys):
        # blank lines at the start, in the middle, at the end and on both
        # sides of a block boundary keep their place with the uniform row
        lines = (workdir / "raw" / "docs.txt").read_text().splitlines()
        docs = [lines[i % len(lines)] for i in range(BLOCK_ROWS + 10)]
        blank = [0, 5, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 9]
        for i in blank:
            docs[i] = " \t" if i % 2 else ""
        path = tmp_path / "docs.txt"
        path.write_text("\n".join(docs) + "\n")
        assert main(["infer", "--ckpt", str(workdir / "model.ckpt"), "--docs", str(path)]) == 0
        captured = capsys.readouterr()

        ckpt = load_checkpoint(workdir / "model.ckpt")
        tokens = [line.lower().split() for line in docs]
        counts = oracle_count_matrix(oracle_count_documents(tokens, ckpt.vocab), ckpt.vocab.size)
        rows, valid = tfidf_transform(csr_from_dense(counts), ckpt.doc_freq,
                                      ckpt.train_doc_count)
        z = np.full((len(docs), ckpt.num_topics), 1.0 / ckpt.num_topics)
        z[valid], _ = ckpt.encoder.forward(rows[valid], train=False)
        assert np.flatnonzero(~valid).tolist() == blank
        assert captured.out == "".join("\t".join(f"{v:.9g}" for v in row) + "\n" for row in z)
        assert captured.err == "".join(
            f"warning: document {i} has no usable tokens; emitting uniform row\n"
            for i in blank)

    def test_block_wise_infer_equals_one_pass(self, workdir, tmp_path, capsys):
        # two blocks, with documents of unknown tokens only on both sides of
        # the boundary, against the one-pass encoder it replaced
        lines = (workdir / "raw" / "docs.txt").read_text().splitlines()
        docs = [lines[i % len(lines)] for i in range(BLOCK_ROWS + 37)]
        for i in (BLOCK_ROWS - 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 3):
            docs[i] = "qqq zzz"
        path = tmp_path / "docs.txt"
        path.write_text("\n".join(docs) + "\n")
        assert main(["infer", "--ckpt", str(workdir / "model.ckpt"), "--docs", str(path)]) == 0
        captured = capsys.readouterr()

        ckpt = load_checkpoint(workdir / "model.ckpt")
        tokens, _ = oracle_load_documents(path)
        counts = oracle_count_matrix(oracle_count_documents(tokens, ckpt.vocab), ckpt.vocab.size)
        rows, valid = tfidf_transform(csr_from_dense(counts), ckpt.doc_freq,
                                      ckpt.train_doc_count)
        z = np.full((len(tokens), ckpt.num_topics), 1.0 / ckpt.num_topics)
        z[valid], _ = ckpt.encoder.forward(rows[valid], train=False)
        assert captured.out == "".join("\t".join(f"{v:.9g}" for v in row) + "\n" for row in z)
        assert np.flatnonzero(~valid).tolist() == [BLOCK_ROWS - 2, BLOCK_ROWS - 1, BLOCK_ROWS,
                                                   BLOCK_ROWS + 3]
        assert captured.err == "".join(
            f"warning: document {i} has no usable tokens; emitting uniform row\n"
            for i in np.flatnonzero(~valid))
        assert cli._encode_documents(ckpt, path).tobytes() == z.tobytes()
        capsys.readouterr()


class TestTopicRowsDependOnTheDocumentAlone:
    """At the ng20 shape (V=2000, H=100) a product over a few rows may sum in
    another order than one over a full group: every group is encoded as
    BLOCK_ROWS rows, so a document's topic row has the same bits in a group
    of one, at the end of a span and in a full group."""

    @pytest.fixture(scope="class")
    def ckpt(self):
        rng = np.random.default_rng(60)
        encoder = build_networks(network_table(2000, 20)[:1], 100, rng)["E"]
        return checkpoint.Checkpoint(
            num_topics=20, num_classes=0, vocab=Vocabulary([f"w{i:04d}" for i in range(2000)]),
            encoder=encoder, generator=None, critic_x=None, critic_z=None, classifier=None,
            config={}, seed=0, doc_freq=rng.integers(1, 3000, size=2000), train_doc_count=6000)

    @pytest.fixture(scope="class")
    def docs(self, tmp_path_factory):
        # 601 lines of 150 five-character tokens, 900 bytes each: two
        # readers cut the file after line 301, so their spans end in groups
        # of 45 and 44 documents, and one reader's last group holds 89
        rng = np.random.default_rng(61)
        path = tmp_path_factory.mktemp("alone") / "docs.txt"
        path.write_text("".join(" ".join(f"w{i:04d}" for i in rng.integers(0, 2000, 150)) + "\n"
                                for _ in range(601)))
        return path

    def test_two_readers_give_the_rows_of_one(self, ckpt, docs, monkeypatch, children):
        monkeypatch.setattr(corpus_module, "READERS", 1)
        one = cli._encode_documents(ckpt, docs)
        monkeypatch.setattr(corpus_module, "SPAN_BYTES", 1 << 16)
        monkeypatch.setattr(corpus_module, "READERS", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = cli._encode_documents(ckpt, docs)
        assert [reader.span for reader in children] == [(301 * 900, 601 * 900)]
        assert one.shape == (601, 20) and np.array_equal(one, two)

    def test_a_document_alone_gives_its_row_in_a_full_group(self, ckpt, docs, tmp_path):
        alone = tmp_path / "one.txt"
        alone.write_text(docs.read_text().splitlines()[0] + "\n")
        assert np.array_equal(cli._encode_documents(ckpt, alone)[0],
                              cli._encode_documents(ckpt, docs)[0])


class TestClassify:
    def test_prints_accuracy(self, workdir, capsys):
        assert main(["classify", "--ckpt", str(workdir / "model_sup.ckpt"),
                     "--docs", str(workdir / "raw" / "docs.txt"),
                     "--labels", str(workdir / "raw" / "labels.txt")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy\t")
        value = float(out.split("\t")[1])
        assert 0.0 <= value <= 1.0

    def test_unsupervised_checkpoint_rejected(self, workdir, capsys):
        code = main(["classify", "--ckpt", str(workdir / "model.ckpt"),
                     "--docs", str(workdir / "raw" / "docs.txt"),
                     "--labels", str(workdir / "raw" / "labels.txt")])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_label_outside_classifier_rejected(self, workdir, tmp_path, capsys):
        n_docs = len((workdir / "raw" / "labels.txt").read_text().split())
        (tmp_path / "labels.txt").write_text("99\n" * n_docs)
        code = main(["classify", "--ckpt", str(workdir / "model_sup.ckpt"),
                     "--docs", str(workdir / "raw" / "docs.txt"),
                     "--labels", str(tmp_path / "labels.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert "label 99 out of range [0, 3)" in captured.err
        assert captured.out == ""

    def test_all_blank_documents_rejected(self, workdir, tmp_path, capsys):
        (tmp_path / "docs.txt").write_text("\n  \n")
        (tmp_path / "labels.txt").write_text("0\n1\n")
        code = main(["classify", "--ckpt", str(workdir / "model_sup.ckpt"),
                     "--docs", str(tmp_path / "docs.txt"),
                     "--labels", str(tmp_path / "labels.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert "no document" in captured.err
        assert captured.out == ""


class TestEvalCoherence:
    def test_default_reference_is_training_corpus(self, workdir, capsys):
        assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                     "--window", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert lines[-1].startswith("mean\t")

    def test_explicit_reference(self, workdir, capsys):
        assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                     "--reference", str(workdir / "raw" / "docs.txt"),
                     "--window", "5", "--top-n", "3"]) == 0
        assert capsys.readouterr().out.count("\n") == 4

    def test_report_equals_oracle_report(self, workdir, capsys):
        ckpt_path = workdir / "model.ckpt"
        reference = workdir / "data" / "docs.txt"
        for window, top_n in ((10, 10), (5, 3), (2, 12)):
            assert main(["eval-coherence", "--ckpt", str(ckpt_path), "--reference",
                         str(reference), "--window", str(window),
                         "--top-n", str(top_n)]) == 0
            ckpt = load_checkpoint(ckpt_path)
            docs, _ = oracle_load_documents(reference)
            stats = oracle_cooc(docs, ckpt.vocab, window)
            expected = format_coherence_report(
                *model_coherence(ckpt.vocab, stats, topic_word_ids(ckpt.generator, top_n)))
            assert capsys.readouterr().out == expected

    def test_blank_lines_do_not_count(self, workdir, tmp_path, capsys):
        # a blank line is no document and no window
        lines = (workdir / "data" / "docs.txt").read_text().splitlines()
        spaced = tmp_path / "docs.txt"
        spaced.write_text("\n" + "\n \n".join(lines) + "\n\n")
        reports = []
        for reference in (workdir / "data" / "docs.txt", spaced):
            assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                         "--reference", str(reference), "--window", "3"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_window_wider_than_every_document(self, workdir, tmp_path, capsys):
        # every document is one window, however wide the window; the window
        # loop runs over the widest document, not over the window
        lines = (workdir / "raw" / "docs.txt").read_text().splitlines()[:60]
        reference = tmp_path / "docs.txt"
        reference.write_text("\n".join(lines) + "\n")
        longest = max(len(line.split()) for line in lines)
        reports = []
        for window in (longest, 10 ** 8):
            start = time.perf_counter()
            assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                         "--reference", str(reference), "--window", str(window)]) == 0
            reports.append((capsys.readouterr().out, time.perf_counter() - start))
        assert reports[0][0] == reports[1][0]
        assert reports[1][1] < 2.0

    def test_each_topic_ranked_once(self, workdir, capsys, monkeypatch):
        # the same ids give build_cooc its word sets and the report its words
        import tomcat.evaluation as evaluation
        top_word_ids, ranked = evaluation.top_word_ids, []

        def counted(row, n):
            ranked.append(n)
            return top_word_ids(row, n)

        monkeypatch.setattr(evaluation, "top_word_ids", counted)
        assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                     "--top-n", "4"]) == 0
        assert capsys.readouterr().out.count("\n") == 4
        assert ranked == [4, 4, 4]

    def test_generator_probed_once(self, workdir, capsys, monkeypatch):
        import tomcat.evaluation as evaluation
        import tomcat.networks as networks
        probe, probes = networks.topic_word_distributions, []

        def counted(generator):
            probes.append(None)
            return probe(generator)

        for module in (networks, evaluation, cli):
            monkeypatch.setattr(module, "topic_word_distributions", counted)
        assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                     "--top-n", "4"]) == 0
        assert capsys.readouterr().out.count("\n") == 4
        assert len(probes) == 1

    @pytest.mark.parametrize("flag", ["--top-n", "--window"])
    def test_below_two_rejected_before_reading_reference(self, workdir, capsys,
                                                         monkeypatch, flag):
        def unexpected(*args, **kwargs):
            pytest.fail("the reference corpus was read")

        monkeypatch.setattr("tomcat.cli.load_documents", unexpected)
        code = main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                     "--reference", str(workdir / "data" / "docs.txt"), flag, "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert flag in captured.err
        assert captured.out == ""


def edge_lines(lines, n):
    """n document lines, with labels, cycling through six kinds so that a
    blank line, a document of unknown tokens only and one with unknown tokens
    among known ones lie on both sides of every block edge, whatever the
    block size: blank lines of no text and of whitespace, the two
    unknown-token kinds, then known documents."""
    docs = []
    for i in range(n):
        kind, line = i % 6, lines[i % len(lines)]
        docs.append(["" if i % 12 else " \t", f"hapax{i} zzz{i}", f"{line} qqq hapax{i}",
                     line, line, line][kind])
    return docs, [i % 3 for i in range(n)]


@pytest.fixture(scope="module")
def edges(workdir, tmp_path_factory):
    """A corpus of edge_lines beyond one default block of documents."""
    root = tmp_path_factory.mktemp("edges")
    docs, labels = edge_lines((workdir / "raw" / "docs.txt").read_text().splitlines(),
                              BLOCK_ROWS + 44)
    (root / "docs.txt").write_text("\n".join(docs) + "\n")
    (root / "labels.txt").write_text("".join(f"{lab}\n" for lab in labels))
    return root


class TestStreamingMatchesWholeFile:
    """Each text command reads a block of lines at a time and counts and
    encodes BLOCK_ROWS documents at a time; its output must be the bytes of
    the whole-file commands it replaced, whatever the block sizes and
    whether the file is read in spans, in one round of 3 or in several. One
    byte per read makes every line a block."""

    # (read bytes, block_rows, largest span in bytes or None for one span)
    BLOCKS = [(read_chars, block_rows, None) for block_rows in (BLOCK_ROWS, 7)
              for read_chars in (1, 7, corpus_module.READ_BYTES)
              ] + [(7, 7, 4096), (corpus_module.READ_BYTES, BLOCK_ROWS,
                                  corpus_module.MAX_SPAN_BYTES)]

    @pytest.fixture(params=BLOCKS, ids=lambda b: f"read_chars={b[0]}-block_rows={b[1]}"
                                                 + ("-spans" if b[2] else ""))
    def blocks(self, request, monkeypatch):
        read_chars, block_rows, max_span_bytes = request.param
        monkeypatch.setattr(corpus_module, "READ_BYTES", read_chars)
        monkeypatch.setattr(corpus_module, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
        if max_span_bytes:
            force_spans(monkeypatch, 1024, max_span_bytes)

    def test_ingest_files(self, edges, tmp_path, capsys, blocks):
        want = whole_file.ingest(edges / "docs.txt", edges / "labels.txt", tmp_path / "want",
                                 min_count=2, max_vocab=12)
        assert main(["ingest", "--docs", str(edges / "docs.txt"),
                     "--labels", str(edges / "labels.txt"), "--min-count", "2",
                     "--max-vocab", "12", "--out", str(tmp_path / "got")]) == 0
        assert capsys.readouterr().out == want
        for name in ("vocab.txt", "manifest.json", "rows.bin"):
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
        assert json.loads((tmp_path / "want" / "manifest.json").read_text())["dropped_rows"]

    def test_infer_output(self, workdir, edges, capsys, blocks):
        ckpt = load_checkpoint(workdir / "model.ckpt")
        out, err = whole_file.infer(ckpt, edges / "docs.txt")
        assert main(["infer", "--ckpt", str(workdir / "model.ckpt"),
                     "--docs", str(edges / "docs.txt")]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)
        assert out.count("\n") == BLOCK_ROWS + 44 and err

    def test_classify_accuracy(self, workdir, edges, capsys, blocks):
        ckpt = load_checkpoint(workdir / "model_sup.ckpt")
        out, err = whole_file.classify(ckpt, edges / "docs.txt", edges / "labels.txt")
        assert main(["classify", "--ckpt", str(workdir / "model_sup.ckpt"),
                     "--docs", str(edges / "docs.txt"),
                     "--labels", str(edges / "labels.txt")]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("window", [2, 10, 25])
    def test_coherence_report(self, workdir, edges, capsys, blocks, window):
        ckpt = load_checkpoint(workdir / "model.ckpt")
        want = whole_file.coherence(ckpt, edges / "docs.txt", window)
        assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                     "--reference", str(edges / "docs.txt"), "--window", str(window)]) == 0
        assert capsys.readouterr().out == want

    def test_label_count_mismatch_counts_every_line(self, edges, tmp_path, capsys, blocks):
        # too few labels and too many are both found at the end of the
        # file, and the message counts every line
        lines = (edges / "labels.txt").read_text().splitlines()
        for labels in (lines[:5], lines + ["0"]):
            (tmp_path / "labels.txt").write_text("\n".join(labels) + "\n")
            code = main(["ingest", "--docs", str(edges / "docs.txt"),
                         "--labels", str(tmp_path / "labels.txt"), "--out", str(tmp_path / "d")])
            assert code == 1
            assert (f"{len(labels)} labels for {len(lines)} lines"
                    in capsys.readouterr().err)
            assert not (tmp_path / "d").exists()


def _traced_peak(argv) -> int:
    """Peak bytes allocated while main runs argv, its output discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        assert main(argv) == 0   # one-time allocations happen outside the trace
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestMemoryBoundedByTheBlock:
    """infer and eval-coherence keep a block of documents, not the file: an
    eightfold corpus raises their peak allocation by little more than what
    they keep by design, the K floats of infer per document and the
    occurrences of the scored words in eval-coherence. The whole-file
    commands held every token's id, counted the whole file at once and kept
    a bitset of every window per scored word: here their peaks rose 7.7 MB
    (infer) and 2.8 MB (eval-coherence) past 1.3 times the 1x peak."""

    ALLOWANCE = 2 ** 18   # bytes
    GROUPS = 1   # groups of BLOCK_ROWS documents in infer's 1x corpus

    @pytest.fixture(scope="class")
    def corpus(self, workdir, tmp_path_factory):
        """A file of n documents and one of the same n eight times, each of
        30 words of the vocabulary and 270 other tokens, so the scored words
        are about a tenth of the tokens, as in a 20NG-shaped corpus."""
        root = tmp_path_factory.mktemp("scaled")
        filler = " ".join(f"f{j}" for j in range(270))
        lines = [f"{line} {filler}"
                 for line in (workdir / "raw" / "docs.txt").read_text().splitlines()]

        def write(n: int) -> list[Path]:
            paths = [root / f"{n}x{scale}.txt" for scale in (1, 8)]
            for path, scale in zip(paths, (1, 8)):
                path.write_text("\n".join((lines * -(-n // len(lines)))[:n] * scale) + "\n")
            return paths
        return write

    def test_infer_peak(self, workdir, corpus):
        # the 1x corpus fills a group of BLOCK_ROWS documents in each span
        peaks = [_traced_peak(["infer", "--ckpt", str(workdir / "model.ckpt"),
                               "--docs", str(path)])
                 for path in corpus(self.GROUPS * BLOCK_ROWS)]
        assert peaks[1] <= 1.3 * peaks[0] + self.ALLOWANCE, peaks

    def test_eval_coherence_peak(self, workdir, corpus):
        peaks = [_traced_peak(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                               "--reference", str(path)]) for path in corpus(60)]
        assert peaks[1] <= 1.3 * peaks[0] + self.ALLOWANCE, peaks


class TestMemoryBoundedInSpans(TestMemoryBoundedByTheBlock):
    """Read in spans, the commands keep a block of documents too: this
    process takes each span reader's blocks, or its topic rows, one at a
    time. Every eightfold corpus is read in 3 spans; so is infer's 1x
    corpus, and each of its spans holds a full block of READ_BYTES
    bytes and, as each span is encoded on its own, about a full group
    of BLOCK_ROWS documents."""

    GROUPS = 3

    @pytest.fixture(autouse=True)
    def spans(self, monkeypatch, children):
        force_spans(monkeypatch, 1 << 17)
        yield
        assert children


class KilledWhenPickled:
    """An object whose pickling kills the process that pickles it."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


class TestSpanReaders:
    """A span reader's failure is the command's: exit 1 with one error line
    naming the file, nothing from the reader on stderr, and no reader left
    running, as when the command is interrupted."""

    @pytest.fixture
    def docs(self, edges, tmp_path, monkeypatch):
        force_spans(monkeypatch, 1024)
        return edges / "docs.txt"

    def assert_one_error_line(self, capfd, path):
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith(f"error: {path}")
        return captured.err

    def test_undecodable_byte_in_the_last_span_is_exit_1(self, docs, tmp_path, capfd,
                                                         children):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(docs.read_bytes() + b"qqq \xff\n")
        assert main(["ingest", "--docs", str(bad), "--out", str(tmp_path / "d")]) == 1
        assert len(children) == 2
        err = self.assert_one_error_line(capfd, bad)
        assert err == f"error: {bad} is not UTF-8 text: invalid start byte (byte 0xff)\n"
        assert not (tmp_path / "d").exists()

    def test_killed_reader_is_exit_1(self, workdir, docs, capfd, children, monkeypatch):
        fork = os.fork   # the children fixture's recording fork

        def killed():   # each reader kills itself as soon as it is forked
            pid = fork()
            if pid == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return pid

        monkeypatch.setattr(os, "fork", killed)
        assert main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                     "--reference", str(docs)]) == 1
        err = self.assert_one_error_line(capfd, docs)
        assert "was killed by signal 9 before it was done" in err

    def test_killed_reader_of_infer_last_span_is_exit_1(self, workdir, docs, capfd, children,
                                                         monkeypatch):
        # the reader of the last span encodes it: its death is the command's
        # error, and nothing of the spans before it is printed
        serve = DocumentFile._serve

        def killed_if_last(self, fd, span, stage):   # runs in the reader
            if span == self.spans[-1]:
                os.kill(os.getpid(), signal.SIGKILL)
            serve(self, fd, span, stage)

        monkeypatch.setattr(DocumentFile, "_serve", killed_if_last)
        assert main(["infer", "--ckpt", str(workdir / "model.ckpt"), "--docs", str(docs)]) == 1
        err = self.assert_one_error_line(capfd, docs)
        start, end = children[-1].span
        assert err.endswith(f": the reader of bytes {start} to {end} was killed by signal 9 "
                            "before it was done\n")
        assert len(children) == 2 and end == docs.stat().st_size

    def test_reader_killed_while_pickling_an_item_is_exit_1(self, workdir, docs, capfd,
                                                             children, monkeypatch):
        # the reader of the last span dies part-way through pickling an item
        # of 1 MiB, so what reaches the pipe, if anything, ends inside it
        serve = DocumentFile._serve

        def dies_pickling_if_last(self, fd, span, stage):   # runs in the reader
            def staged(blocks):
                yield from stage(blocks)
                yield bytes(1 << 20), KilledWhenPickled()
            serve(self, fd, span, staged if span == self.spans[-1] else stage)

        monkeypatch.setattr(DocumentFile, "_serve", dies_pickling_if_last)
        assert main(["infer", "--ckpt", str(workdir / "model.ckpt"), "--docs", str(docs)]) == 1
        err = self.assert_one_error_line(capfd, docs)
        start, end = children[-1].span
        assert err.endswith(f": the reader of bytes {start} to {end} was killed by signal 9 "
                            "before it was done\n")
        assert len(children) == 2 and end == docs.stat().st_size

    def test_interrupt_reaps_every_reader(self, workdir, docs, children, monkeypatch):
        def interrupted(blocks, **kwargs):
            next(blocks)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "build_cooc", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                  "--reference", str(docs)])
        assert len(children) == 2


class TestLabelCountInSpans:
    """classify reads its file through map_spans: read in two spans, as
    TestSpans reads one, a label file one line short or one line long is
    exit 1, its message counting every line, with nothing on stdout."""

    @pytest.mark.parametrize("extra", [-1, 1], ids=["one too few", "one too many"])
    def test_classify_label_count_mismatch_is_exit_1(self, workdir, edges, tmp_path, capsys,
                                                     children, monkeypatch, extra):
        monkeypatch.setattr(corpus_module, "SPAN_BYTES", 16)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        lines = (edges / "labels.txt").read_text().splitlines()
        labels = lines[:extra] if extra < 0 else lines + ["0"] * extra
        (tmp_path / "labels.txt").write_text("\n".join(labels) + "\n")
        code = main(["classify", "--ckpt", str(workdir / "model_sup.ckpt"),
                     "--docs", str(edges / "docs.txt"), "--labels", str(tmp_path / "labels.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert len(children) == 1
        assert f"{len(labels)} labels for {len(lines)} lines" in captured.err
        assert captured.out == ""


class TestErrorPaths:
    def test_numerical_abort_is_exit_3(self, workdir, tmp_path, capsys, monkeypatch):
        from tomcat.training import NonFiniteLossError

        def explode(*args, **kwargs):
            raise NonFiniteLossError(12, "adv_x")

        monkeypatch.setattr("tomcat.cli.train", explode)
        code = main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "1",
                     "--out", str(tmp_path / "x.ckpt")])
        captured = capsys.readouterr()
        assert code == 3
        assert "iteration 12" in captured.err
        assert "adv_x" in captured.err

    def test_numerical_abort_keeps_loss_log(self, workdir, tmp_path, capsys, monkeypatch):
        import tomcat.training as training

        k = 4
        real = training.cycle_losses
        calls = []

        def nan_at_iteration_k(*args, **kwargs):
            fwd, bwd, passes = real(*args, **kwargs)
            calls.append(None)
            return (float("nan") if len(calls) == k + 1 else fwd), bwd, passes

        monkeypatch.setattr(training, "cycle_losses", nan_at_iteration_k)
        log = tmp_path / "x.losses.tsv"
        code = main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "10", "--seed", "3",
                     "--out", str(tmp_path / "x.ckpt"), "--loss-log", str(log)])
        assert code == 3
        assert f"iteration {k}" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()
        lines = log.read_text(encoding="utf-8").splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        assert [int(row.split("\t")[0]) for row in rows] == list(range(k))
        assert lines[0].startswith("#iteration")
        assert lines[-1] == f"# aborted: non-finite value for 'cyc_forward' at iteration {k}"

    @pytest.mark.parametrize("step", [3, 6], ids=["critic step", "mapper step"])
    def test_sampling_abort_keeps_loss_log(self, workdir, tmp_path, capsys, monkeypatch,
                                           step):
        import tomcat.training as training
        from tomcat.networks import SamplingError

        k = 4
        real = training.sample_prior
        calls = []
        message = "prior draws kept underflowing to zero after 100 retries"

        def underflow_at_iteration_k(*args, **kwargs):
            # an iteration draws a prior batch in each of its 5 critic steps,
            # then one in its mapper step
            calls.append(None)
            if len(calls) == 6 * k + step:
                raise SamplingError(message)
            return real(*args, **kwargs)

        monkeypatch.setattr(training, "sample_prior", underflow_at_iteration_k)
        log = tmp_path / "x.losses.tsv"
        code = main(["train", "--data", str(workdir / "data"), "--topics", "2",
                     "--batch", "16", "--iters", "10", "--seed", "3",
                     "--out", str(tmp_path / "x.ckpt"), "--loss-log", str(log)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message} at iteration {k}\n"
        assert not (tmp_path / "x.ckpt").exists()
        lines = log.read_text(encoding="utf-8").splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        assert [int(row.split("\t")[0]) for row in rows] == list(range(k))
        assert lines[0].startswith("#iteration")
        assert lines[-1] == f"# aborted: {message} at iteration {k}"

    def test_failed_save_keeps_previous_files(self, workdir, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        args = ["train", "--data", str(workdir / "data"), "--topics", "2",
                "--batch", "16", "--iters", "2", "--out", str(out / "x.ckpt")]
        assert main(args + ["--seed", "2"]) == 0
        new_log = (out / "x.ckpt.losses.tsv").read_bytes()
        assert main(args + ["--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["x.ckpt", "x.ckpt.losses.tsv"]
        assert before["x.ckpt.losses.tsv"] != new_log
        real_write, real_save = os.write, checkpoint.write_atomic
        saved_parts, save_writes = [], []

        def write_half_then_fail(fd, data):
            real_write(fd, bytes(data[:len(data) // 2]))
            raise OSError(errno.ENOSPC, "No space left on device")

        def save(path, *parts):
            saved_parts.extend(parts)
            real_save(path, *parts)

        def fail_in_first_array(fd, data):
            if not saved_parts:   # the loss log, written before the checkpoint
                return real_write(fd, data)
            save_writes.append(data)
            if len(save_writes) == 1:   # the fields up to the first array
                return real_write(fd, data)
            write_half_then_fail(fd, data)

        monkeypatch.setattr(checkpoint, "write_atomic", save)
        monkeypatch.setattr(os, "write", fail_in_first_array)
        assert main(args + ["--seed", "2"]) == 1
        assert "No space left" in capsys.readouterr().err
        # the save failed half-way through an array, streamed from its own memory
        assert len(saved_parts) > 2 and len(save_writes) == 2
        assert isinstance(saved_parts[1], np.ndarray)
        assert save_writes[1].nbytes == saved_parts[1].nbytes
        # the old checkpoint is whole, no temporary file is left, and the
        # loss log is the new run's
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert after == {"x.ckpt": before["x.ckpt"], "x.ckpt.losses.tsv": new_log}

        # the loss log is written the same way
        from tomcat.training import write_loss_log
        monkeypatch.setattr(os, "write", write_half_then_fail)
        with pytest.raises(OSError):
            write_loss_log([], out / "x.ckpt.losses.tsv", abort="test")
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == after

    def test_failed_save_keeps_the_loss_log(self, workdir, tmp_path, capsys, monkeypatch):
        args = ["train", "--data", str(workdir / "data"), "--topics", "2",
                "--batch", "16", "--iters", "3", "--seed", "4"]
        assert main(args + ["--out", str(tmp_path / "ok.ckpt")]) == 0
        want = (tmp_path / "ok.ckpt.losses.tsv").read_bytes()
        capsys.readouterr()

        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "save_checkpoint", no_space)
        assert main(args + ["--out", str(tmp_path / "x.ckpt")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "No space left" in err[0]
        assert not (tmp_path / "x.ckpt").exists()
        log = (tmp_path / "x.ckpt.losses.tsv").read_bytes()
        rows = [line for line in log.decode("utf-8").splitlines() if not line.startswith("#")]
        assert [int(row.split("\t")[0]) for row in rows] == [0, 1, 2]
        assert log == want

    def test_corrupt_magic_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXXXXXX" + b"\x00" * 32)
        code = main(["topics", "--ckpt", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err != ""

    def test_unknown_flag_is_exit_1(self, capsys):
        assert main(["train", "--bogus"]) == 1

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0

    def test_synth_size_too_large_to_allocate_is_exit_1(self, tmp_path):
        # in a child process whose address space is capped, so that a
        # regression fails the test instead of taking the machine's memory
        cap = 512 * 2 ** 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "tomcat", "synth", "--k", str(10 ** 12),
             "--words-per-topic", "2", "--docs", "10", "--doc-len", "5",
             "--out", str(tmp_path / "s")],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        # numpy's message names the prior draws, the first array synth makes:
        # the failure came from that allocation, not from Python lists
        # filling the capped memory
        assert "(10, 1000000000000)" in done.stderr
        assert done.stdout == ""

    def test_synth_vocabulary_past_int32_word_ids_is_exit_1(self, tmp_path, capsys):
        # 2 ** 31 words: one more than an int32 id can name
        code = main(["synth", "--k", "2", "--words-per-topic", str(2 ** 30), "--docs", "10",
                     "--doc-len", "5", "--out", str(tmp_path / "s")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {2 ** 31} words do not fit int32 word ids\n"
        assert captured.out == "" and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag, value", [("--alpha", "inf"), ("--alpha", "nan"),
                                             ("--seed", "-1")])
    def test_synth_bad_value_rejected(self, tmp_path, capsys, flag, value):
        code = main(["synth", "--k", "2", "--words-per-topic", "3", "--docs", "10",
                     "--doc-len", "5", flag, value, "--out", str(tmp_path / "s")])
        captured = capsys.readouterr()
        assert code == 1
        rule = {"--alpha": "doc_topic_alpha must be finite and positive",
                "--seed": "seed must be >= 0"}[flag]
        assert captured.err == f"error: {rule}, not {value}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_synth_non_finite_alpha_prints_one_error_line(self, tmp_path):
        # in a child process, out of reach of the test run's warning filter,
        # so that a numpy warning printed before the error line would show
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "tomcat", "synth", "--k", "2", "--words-per-topic", "3",
             "--docs", "10", "--doc-len", "5", "--alpha", "inf",
             "--out", str(tmp_path / "s")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr == "error: doc_topic_alpha must be finite and positive, not inf\n"
        assert done.stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_synth_round_trip(self, tmp_path, capsys):
        assert main(["synth", "--k", "2", "--words-per-topic", "3", "--docs", "40",
                     "--doc-len", "12", "--alpha", "0.1", "--seed", "3",
                     "--out", str(tmp_path / "s")]) == 0
        supports = (tmp_path / "s" / "supports.txt").read_text().strip().split("\n")
        assert len(supports) == 2
        assert main(["ingest", "--docs", str(tmp_path / "s" / "docs.txt"),
                     "--labels", str(tmp_path / "s" / "labels.txt"),
                     "--out", str(tmp_path / "d")]) == 0


GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("ingest", "train", "topics", "infer", "classify", "eval-coherence", "synth")


class TestHelp:
    # golden/help/*.txt: argparse's layout at 80 columns, recorded with
    # Python 3.11
    @pytest.mark.parametrize("argv", [["--help"]] + [[cmd, "--help"] for cmd in COMMANDS],
                             ids=["tomcat", *COMMANDS])
    def test_help_text_is_the_golden_one(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 0
        captured = capsys.readouterr()
        name = "tomcat" if len(argv) == 1 else argv[0]
        assert captured.out == (GOLDEN / "help" / f"{name}.txt").read_text(encoding="utf-8")
        assert captured.err == ""


class TestOneParser:
    def test_one_parser_serves_many_calls(self, workdir, capsys, monkeypatch):
        # main() parses with the process's one parser: after a refused flag,
        # a missing required flag and --help, each call gives what it gives
        # as the first call of a fresh process
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                               os.environ.get("PYTHONPATH", "")]))
        calls = [(["topics", "--bogus"], 1), (["topics"], 1), (["--help"], 0),
                 (["topics", "--ckpt", str(workdir / "model.ckpt")], 0)]
        for argv, want in calls:
            fresh = subprocess.run([sys.executable, "-m", "tomcat", *argv], env=env,
                                   capture_output=True, text=True, timeout=60)
            code = main(argv)
            captured = capsys.readouterr()
            assert code == fresh.returncode == want, argv
            assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr), argv
            assert captured.out or captured.err


class _Made(Exception):
    """Raised by a config class once it is made, so the command stops there."""


class TestFlagsSetFields:
    """Each field of TrainConfig (train) and SyntheticSpec (synth) is set by
    exactly one flag, whose default is the field's and which is required
    exactly when the field has no default. Which field a flag sets is found
    by running the command with that flag changed and comparing the config
    it makes."""

    CASES = {"train": (TrainConfig, ["--data", "d", "--topics", "2", "--out", "m.ckpt"]),
             "synth": (SyntheticSpec, ["--k", "2", "--words-per-topic", "2", "--docs", "2",
                                       "--doc-len", "2", "--out", "s"])}

    @staticmethod
    def made(cls, argv, monkeypatch):
        """The cls instance the command makes from argv."""
        made = []

        class Recording(cls):
            def __post_init__(self):
                super().__post_init__()
                made.append(self)
                raise _Made

        monkeypatch.setattr(cli, cls.__name__, Recording)
        with pytest.raises(_Made):
            main(argv)
        return made[0]

    @staticmethod
    def changed(argv, action):
        """argv with the action's flag given another valid value."""
        flag = action.option_strings[0]
        if action.nargs == 0:   # store_true
            return argv + [flag]
        if action.type in (int, float):
            value = action.default
            value = 3 if value is None else value + 1 if action.type is int else value / 2
        else:
            value = "other"
        if flag in argv:
            argv = argv[:argv.index(flag)] + argv[argv.index(flag) + 2:]
        return argv + [flag, str(value)]

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_each_field_is_set_by_one_flag(self, command, monkeypatch):
        cls, required = self.CASES[command]
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in subparsers.choices[command]._actions if a.dest != "help"]
        base = self.made(cls, [command] + required, monkeypatch)
        setters = {}
        for action in actions:
            config = self.made(cls, [command] + self.changed(required, action), monkeypatch)
            moved = [f.name for f in fields(cls) if getattr(config, f.name) != getattr(base, f.name)]
            assert len(moved) <= 1, (action.option_strings, moved)
            for name in moved:
                setters.setdefault(name, []).append(action)
        assert sorted(setters) == sorted(f.name for f in fields(cls))
        for f in fields(cls):
            (action,) = setters[f.name]
            assert action.required == (f.default is MISSING), f.name
            if f.default is not MISSING:
                assert action.default == f.default == getattr(base, f.name), f.name


class TestSynthGolden:
    # sha256 of each file and of stdout, recorded before synth stopped
    # building a dense (docs, vocabulary) matrix
    SPECS = {
        "acceptance": (["--k", "5", "--words-per-topic", "20", "--docs", "2000",
                        "--doc-len", "50", "--alpha", "0.05", "--seed", "13"], {
            "docs.txt": "5827da3157c529bb94c91916849320a11f9f8913b73a7b527c1a6be6844b72a8",
            "labels.txt": "e9b05a6992f2a22c9d7cdd4a443c4be3c363f1e73ec4d212a6f20e837d8e5829",
            "supports.txt": "ba0ff28c83e4a770b5ec0e9d68eb4321fc9f3491bc05926da3d12f65a1f6551e",
            "stdout": "cff49843f6b1d6507a0273119bce76540ec7299a55d88780ca78559734a53be4"}),
        "wide": (["--k", "50", "--words-per-topic", "100", "--docs", "400",
                  "--doc-len", "50"], {
            "docs.txt": "dbc89274e083c4fbd56842cea1c4aa407d60d1602bdfc5630979a1f54201f72f",
            "labels.txt": "7f5848c6c08324e6854acd7931601aa855e048acf2ff8c7b64d70269df28f632",
            "supports.txt": "fae0872460029b659fe46742330aba6fd144dc55cddb0b3d3e6dae17e7092155",
            "stdout": "974425edbd9f0115b88fc9c1f177d692b9ed0a6018e2903a2008154f2f9f4f5f"}),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_outputs_are_the_golden_bytes(self, name, tmp_path, capsys):
        argv, want = self.SPECS[name]
        assert main(["synth", *argv, "--out", str(tmp_path)]) == 0
        got = {"stdout": capsys.readouterr().out.encode("utf-8")}
        got.update((f, (tmp_path / f).read_bytes()) for f in ("docs.txt", "labels.txt",
                                                              "supports.txt"))
        assert {f: hashlib.sha256(data).hexdigest() for f, data in got.items()} == want
