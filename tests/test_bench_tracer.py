"""The benchmark's span tracer (perfbench/tracer.py) wraps functions and
methods of the package by name. A rename in the package must fail here, not
only in a traced benchmark run."""

import importlib
from pathlib import Path

import tomcat.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lookup(owner, attr):
    # as the tracer reads it: a method from its class's own dict
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_wraps_and_uninstall_restores(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert _lookup(owner, attr) is not original, (owner, attr)

        # the wrappers must accept the calls the commands make
        assert cli.main(["synth", "--k", "2", "--words-per-topic", "3", "--docs", "20",
                         "--doc-len", "10", "--seed", "1", "--out", str(tmp_path / "raw")]) == 0
        assert cli.main(["ingest", "--docs", str(tmp_path / "raw" / "docs.txt"),
                         "--out", str(tmp_path / "data")]) == 0
        names = {span[0] for span in tracer.spans}
        assert {"corpus.load_documents", "corpus.count_documents", "corpus.tfidf"} <= names

        assert cli.main(["train", "--data", str(tmp_path / "data"), "--topics", "2",
                         "--hidden", "4", "--batch", "8", "--iters", "1",
                         "--out", str(tmp_path / "model.ckpt")]) == 0
        assert cli.main(["infer", "--ckpt", str(tmp_path / "model.ckpt"),
                         "--docs", str(tmp_path / "raw" / "docs.txt")]) == 0
        names = {span[0] for span in tracer.spans}
        assert {"training.train", "training.batch", "corpus.tfidf_transform"} <= names
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _lookup(owner, attr) is original, (owner, attr)
    capsys.readouterr()
