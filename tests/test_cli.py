import json
from pathlib import Path

import numpy as np
import pytest

from tomcat.cli import main


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
