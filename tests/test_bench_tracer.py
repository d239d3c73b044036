"""The benchmark's span tracer (perfbench/tracer.py) wraps functions and
methods of the package by name, and its scripts import names from the
package. A rename in the package must fail here, not only in a benchmark
run."""

import ast
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
        # the per-network metrics of the bench read these spans by network name
        networks = importlib.import_module("run").TRAIN_NETWORKS
        assert {f"networks.{net}.{direction}" for net in networks
                for direction in ("forward", "backward")} <= names
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert _lookup(owner, attr) is original, (owner, attr)
    capsys.readouterr()


def test_probe_captures_train_and_infer(monkeypatch, tmp_path, capsys):
    # the benchmark's Probe rebinds cli.train and cli._encode_documents by
    # name; train_iters_per_s and the infer check read what it captures
    monkeypatch.syspath_prepend(str(PERFBENCH))
    originals = cli.train, cli._encode_documents
    probe = importlib.import_module("worker").Probe(cli)
    try:
        assert cli.train is not originals[0] and cli._encode_documents is not originals[1]
        assert cli.main(["synth", "--k", "2", "--words-per-topic", "3", "--docs", "20",
                         "--doc-len", "10", "--seed", "1", "--out", str(tmp_path / "raw")]) == 0
        assert cli.main(["ingest", "--docs", str(tmp_path / "raw" / "docs.txt"),
                         "--out", str(tmp_path / "data")]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--data", str(tmp_path / "data"), "--topics", "2",
                         "--hidden", "4", "--batch", "8", "--iters", "2",
                         "--out", str(tmp_path / "model.ckpt")]) == 0
        assert len(probe.state.loss_log) == 2
        assert probe.train_s > 0 and probe.train_start > 0
        capsys.readouterr()
        assert cli.main(["infer", "--ckpt", str(tmp_path / "model.ckpt"),
                         "--docs", str(tmp_path / "raw" / "docs.txt")]) == 0
        printed = capsys.readouterr().out
        assert probe.encoded.shape == (20, 2)
        assert printed == "".join("\t".join(f"{v:.9g}" for v in row) + "\n"
                                  for row in probe.encoded)
    finally:
        cli.train, cli._encode_documents = originals
    assert cli.train is originals[0] and cli._encode_documents is originals[1]


def test_perfbench_imports_from_the_package_resolve():
    # worker.py imports some names inside methods that only a benchmark run calls
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tomcat":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.name, alias.name, None) for alias in node.names
                             if alias.name.split(".")[0] == "tomcat"]
    assert any(name == "load_checkpoint" for _, _, name in imported)
    unresolved = []
    for script, module_name, name in imported:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ModuleNotFoundError:
                unresolved.append(f"{script}: from {module_name} import {name}")
    assert not unresolved, unresolved
