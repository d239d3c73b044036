import contextlib
import errno
import io
import json
import os
import shutil
import time
import tracemalloc
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from test_corpus import (
    csr_of,
    oracle_count_documents,
    oracle_count_matrix,
    oracle_load_documents,
    oracle_tfidf,
)
import tomcat.corpus as corpus_module
import whole_file
from test_evaluation import oracle_cooc
from tomcat import cli
from tomcat.checkpoint import load_checkpoint
from tomcat.cli import main
from tomcat.corpus import BLOCK_ROWS, RowsError, Vocabulary, load_rows, tfidf_transform
from tomcat.evaluation import format_coherence_report, model_coherence


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

    @pytest.mark.parametrize("manifest", [
        b"{", b"\xff\xfe", b"[1, 2]", b'{"n_classes": "3"}', b'{"n_classes": -1}',
        b'{"n_classes": 1.5}', b'{"n_docs": 150}',
        b'{"n_docs": 150, "n_classes": 1000000000000001}',
    ])
    def test_malformed_manifest_is_exit_2(self, workdir, tmp_path, capsys, manifest):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "manifest.json").write_bytes(manifest)
        code = main(["train", "--data", str(data), "--topics", "2", "--batch", "16",
                     "--iters", "1", "--out", str(tmp_path / "m.ckpt")])
        captured = capsys.readouterr()
        assert code == 2
        assert "manifest.json" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["missing directory", "a directory",
                                       "loss log in a missing directory"])
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
                   "--loss-log", str(tmp_path / "absent" / "m.tsv")]}[where]
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


def _member_data_spans(archive: bytes):
    """(start, end) of every member's stored bytes: the .npy header and the
    array, which the member's CRC-32 covers."""
    spans = []
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        for info in zf.infolist():
            at = info.header_offset
            name_len = int.from_bytes(archive[at + 26:at + 28], "little")
            extra_len = int.from_bytes(archive[at + 28:at + 30], "little")
            start = at + 30 + name_len + extra_len
            spans.append((start, start + info.compress_size))
    return spans


def _rewrite(path, change):
    """Load every array of a rows.npz archive, let change edit the dict, save it."""
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    change(arrays)
    with path.open("wb") as fh:
        np.savez(fh, **arrays)


def _set(name, index, value):
    def change(arrays):
        arrays[name][index] = value
    return change


def _swap_first_two_columns(arrays):
    start = int(np.flatnonzero(np.diff(arrays["indptr"]) > 1)[0])
    at = arrays["indptr"][start]
    arrays["indices"][[at, at + 1]] = arrays["indices"][[at + 1, at]]


# structural violations of rows.npz; the corpus has 12 words and 3 classes
ARCHIVE_DAMAGE = {
    "missing indptr": lambda a: a.pop("indptr"),
    "missing indices": lambda a: a.pop("indices"),
    "missing data": lambda a: a.pop("data"),
    "missing doc_freq": lambda a: a.pop("doc_freq"),
    "missing kept_docs": lambda a: a.pop("kept_docs"),
    "unknown array": lambda a: a.update(extra=np.zeros(1)),
    "indptr not monotone": _set("indptr", 2, 10 ** 6),
    "indptr one too long": lambda a: a.update(indptr=np.append(a["indptr"], a["indptr"][-1])),
    "indptr one too short": lambda a: a.update(indptr=a["indptr"][:-1]),
    "indptr not from 0": lambda a: a.update(indptr=a["indptr"] + 1),
    "index equal to V": _set("indices", 5, 12),
    "negative index": _set("indices", 5, -1),
    "columns out of order": _swap_first_two_columns,
    "data NaN": _set("data", 3, np.nan),
    "data infinite": _set("data", 3, np.inf),
    "data zero": _set("data", 3, 0.0),
    "data negative": _set("data", 3, -0.5),
    "data float32": lambda a: a.update(data=a["data"].astype(np.float32)),
    "indices 2-d": lambda a: a.update(indices=a["indices"][:, None]),
    "doc_freq one short": lambda a: a.update(doc_freq=a["doc_freq"][:-1]),
    "doc_freq above n_docs": _set("doc_freq", 0, 151),
    "kept ids one short": lambda a: a.update(kept_docs=a["kept_docs"][:-1]),
    "kept ids one too many": lambda a: a.update(kept_docs=np.append(a["kept_docs"], 149)),
    "kept ids repeated": _set("kept_docs", 1, 0),
    "labels one short": lambda a: a.update(labels=a["labels"][:-1]),
    "label outside the classes": _set("labels", 0, 3),
    "object array": lambda a: a.update(labels=np.array([None] * a["labels"].size)),
}


class TestDataDirectory:
    def test_rows_archive_equals_dense_tfidf(self, workdir):
        # the CSR arrays of the dense TF-IDF the oracle builds from the corpus
        docs, labels = oracle_load_documents(workdir / "raw" / "docs.txt",
                                             workdir / "raw" / "labels.txt")
        vocab = Vocabulary.load(workdir / "data" / "vocab.txt")
        rows, kept, _, doc_freq = oracle_tfidf(oracle_count_documents(docs, vocab), vocab.size)
        want = dict(zip(("indptr", "indices", "data"), csr_of(rows)),
                    doc_freq=doc_freq, kept_docs=np.array(kept, dtype=np.int64),
                    labels=np.array(labels, dtype=np.int64)[kept])
        with np.load(workdir / "data" / "rows.npz", allow_pickle=False) as npz:
            assert sorted(npz.files) == sorted(want)
            for name, array in want.items():
                assert (npz[name].dtype, npz[name].tobytes()) == (array.dtype, array.tobytes())
        assert sorted(p.name for p in (workdir / "data").iterdir()) == [
            "docs.txt", "manifest.json", "rows.npz", "vocab.txt"]

    def test_train_reads_no_document(self, workdir, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "docs.txt").unlink()
        monkeypatch.setattr("tomcat.cli.load_documents", lambda *a: pytest.fail("read"))
        assert main(_train_args(data, tmp_path) + ["--supervised"]) == 0

    def test_missing_rows_archive_is_exit_1(self, workdir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        (data / "rows.npz").unlink()
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert "rows.npz" in captured.err and "'ingest'" in captured.err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("content", [b"", b"not an archive", b"PK\x03\x04" + b"\x00" * 40,
                                         "truncated", "unclosed .npy header"])
    def test_undecodable_archive_is_exit_2(self, workdir, tmp_path, capsys, content):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        clean = (data / "rows.npz").read_bytes()
        if content == "truncated":
            content = clean[:len(clean) // 2]
        elif content == "unclosed .npy header":
            # a member whose CRC-32 holds; numpy's fallback parse of the
            # header raises tokenize.TokenError
            out = io.BytesIO()
            with zipfile.ZipFile(io.BytesIO(clean)) as src, zipfile.ZipFile(out, "w") as dst:
                for name in src.namelist():
                    member = src.read(name)
                    assert b"), }" in member
                    dst.writestr(name, member.replace(b"), }", b"),  ", 1))
            content = out.getvalue()
        (data / "rows.npz").write_bytes(content)
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 2
        assert "rows.npz" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("damage", sorted(ARCHIVE_DAMAGE))
    def test_malformed_archive_is_exit_2(self, workdir, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        _rewrite(data / "rows.npz", ARCHIVE_DAMAGE[damage])
        with pytest.raises(RowsError):
            load_rows(data / "rows.npz", 12, 150, 3)
        code = main(_train_args(data, tmp_path))
        captured = capsys.readouterr()
        assert code == 2, captured.err
        assert "rows.npz" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "m.ckpt").exists()

    def test_member_byte_flips_are_exit_2(self, workdir, tmp_path, capsys):
        # the CRC-32 of each member covers its .npy header and its array
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        path = data / "rows.npz"
        clean = path.read_bytes()
        positions = np.concatenate([np.arange(a, b) for a, b in _member_data_spans(clean)])
        rng = np.random.default_rng(2024)
        for pos in rng.choice(positions, size=200, replace=False):
            blob = bytearray(clean)
            blob[pos] = (blob[pos] + int(rng.integers(1, 256))) % 256
            path.write_bytes(bytes(blob))
            assert main(_train_args(data, tmp_path)) == 2, pos
        assert capsys.readouterr().out == ""

    def test_zip_structure_byte_flips_load_or_raise(self, workdir, tmp_path):
        # a flipped byte of the zip headers either leaves the arrays intact
        # (a field the reader ignores) or is reported as corruption
        path = tmp_path / "rows.npz"
        clean = (workdir / "data" / "rows.npz").read_bytes()
        want, _ = load_rows(workdir / "data" / "rows.npz", 12, 150, 3)
        in_members = np.zeros(len(clean), dtype=bool)
        for a, b in _member_data_spans(clean):
            in_members[a:b] = True
        outcomes = set()
        for pos in np.flatnonzero(~in_members):
            for value in {0xFF, 0x00, clean[pos] ^ 0x01} - {clean[pos]}:
                blob = bytearray(clean)
                blob[pos] = value
                path.write_bytes(bytes(blob))
                try:
                    got, _ = load_rows(path, 12, 150, 3)
                except RowsError:
                    outcomes.add("error")
                    continue
                outcomes.add("intact")
                assert got.rows.tobytes() == want.rows.tobytes(), (pos, value)
                assert got.kept_docs == want.kept_docs, (pos, value)
        assert outcomes == {"error", "intact"}


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
        rows, valid = tfidf_transform(counts, ckpt.doc_freq, ckpt.train_doc_count)
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
        rows, valid = tfidf_transform(counts, ckpt.doc_freq, ckpt.train_doc_count)
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
                *model_coherence(ckpt.generator, ckpt.vocab, stats, n=top_n))
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
    the whole-file commands it replaced, whatever the block sizes. One
    character per block makes every line a block."""

    BLOCKS = [(read_chars, block_rows) for block_rows in (BLOCK_ROWS, 7)
              for read_chars in (1, 7, corpus_module.READ_CHARS)]

    @pytest.fixture(params=BLOCKS, ids=lambda b: f"read_chars={b[0]}-block_rows={b[1]}")
    def blocks(self, request, monkeypatch):
        read_chars, block_rows = request.param
        monkeypatch.setattr(corpus_module, "READ_CHARS", read_chars)
        monkeypatch.setattr(corpus_module, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)

    def test_ingest_files(self, edges, tmp_path, capsys, blocks):
        want = whole_file.ingest(edges / "docs.txt", edges / "labels.txt", tmp_path / "want",
                                 min_count=2, max_vocab=12)
        assert main(["ingest", "--docs", str(edges / "docs.txt"),
                     "--labels", str(edges / "labels.txt"), "--min-count", "2",
                     "--max-vocab", "12", "--out", str(tmp_path / "got")]) == 0
        assert capsys.readouterr().out == want
        for name in ("vocab.txt", "manifest.json", "rows.npz"):
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
        # too few labels are found at the first line past them, too many at
        # the end of the file; the message counts every line either way
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
                path.write_text("\n".join((lines * 2)[:n] * scale) + "\n")
            return paths
        return write

    def test_infer_peak(self, workdir, corpus):
        # the 1x corpus fills a group of BLOCK_ROWS documents
        peaks = [_traced_peak(["infer", "--ckpt", str(workdir / "model.ckpt"),
                               "--docs", str(path)]) for path in corpus(BLOCK_ROWS)]
        assert peaks[1] <= 1.3 * peaks[0] + self.ALLOWANCE, peaks

    def test_eval_coherence_peak(self, workdir, corpus):
        peaks = [_traced_peak(["eval-coherence", "--ckpt", str(workdir / "model.ckpt"),
                               "--reference", str(path)]) for path in corpus(60)]
        assert peaks[1] <= 1.3 * peaks[0] + self.ALLOWANCE, peaks


class TestAllocatorSetting:
    def test_pins_glibc_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        cli._keep_freed_blocks_in_heap()
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
        assert calls == [(-3, 32 * 2 ** 20), (-1, 64 * 2 ** 20)]

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        cli._keep_freed_blocks_in_heap()


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

    def test_failed_save_keeps_previous_files(self, workdir, tmp_path, capsys, monkeypatch):
        args = ["train", "--data", str(workdir / "data"), "--topics", "2",
                "--batch", "16", "--iters", "2", "--out", str(tmp_path / "x.ckpt")]
        assert main(args + ["--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["x.ckpt", "x.ckpt.losses.tsv"]
        real_write = os.write

        def write_half_then_fail(fd, data):
            real_write(fd, bytes(data[:len(data) // 2]))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "write", write_half_then_fail)
        assert main(args + ["--seed", "2"]) == 1
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

        # the loss log is written the same way
        from tomcat.training import write_loss_log
        with pytest.raises(OSError):
            write_loss_log([], tmp_path / "x.ckpt.losses.tsv", abort="test")
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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

    def test_synth_round_trip(self, tmp_path, capsys):
        assert main(["synth", "--k", "2", "--words-per-topic", "3", "--docs", "40",
                     "--doc-len", "12", "--alpha", "0.1", "--seed", "3",
                     "--out", str(tmp_path / "s")]) == 0
        supports = (tmp_path / "s" / "supports.txt").read_text().strip().split("\n")
        assert len(supports) == 2
        assert main(["ingest", "--docs", str(tmp_path / "s" / "docs.txt"),
                     "--labels", str(tmp_path / "s" / "labels.txt"),
                     "--out", str(tmp_path / "d")]) == 0
