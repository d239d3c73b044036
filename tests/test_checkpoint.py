import json
import struct
import tracemalloc

import numpy as np
import pytest

from tomcat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from conftest import csr_from_dense
from tomcat.cli import main
from tomcat.corpus import Vocabulary
from tomcat.networks import build_networks, network_table, state_shapes
from tomcat.training import TrainConfig, train


def trained_state(seed, supervised=False, num_words=9, num_topics=3):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.01, 1, size=(40, num_words))
    rows /= rows.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=40) if supervised else None
    cfg = TrainConfig(num_topics=num_topics, hidden=5, batch_size=8, iterations=2,
                      critic_steps=2, supervised=supervised, seed=seed)
    return train(csr_from_dense(rows), cfg, labels=labels)


def save_state(state, vocab, path, doc_freq=None, train_doc_count=40, config=None):
    save_checkpoint(
        path,
        vocab=vocab,
        encoder=state.encoder,
        generator=state.generator,
        critic_x=state.critic_x,
        critic_z=state.critic_z,
        classifier=state.classifier,
        config=state.config.as_dict() if config is None else config,
        seed=state.config.seed,
        doc_freq=np.arange(vocab.size) + 1 if doc_freq is None else doc_freq,
        train_doc_count=train_doc_count,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("supervised", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bitwise_identity(self, tmp_path, supervised, seed):
        state = trained_state(seed, supervised=supervised)
        vocab = Vocabulary([f"t{i}" for i in range(9)])
        path = tmp_path / "model.ckpt"
        save_state(state, vocab, path)
        loaded = load_checkpoint(path)

        assert (loaded.classifier is not None) == supervised
        assert loaded.vocab.tokens == vocab.tokens
        assert loaded.seed == seed
        assert loaded.train_doc_count == 40
        np.testing.assert_array_equal(loaded.doc_freq, np.arange(9) + 1)

        originals = [state.encoder, state.generator, state.critic_x, state.critic_z]
        copies = [loaded.encoder, loaded.generator, loaded.critic_x, loaded.critic_z]
        if supervised:
            originals.append(state.classifier)
            copies.append(loaded.classifier)
        for orig, copy in zip(originals, copies):
            for key, arr in orig.state().items():
                np.testing.assert_array_equal(arr, copy.state()[key])

    def test_save_load_save_identical_bytes(self, tmp_path):
        state = trained_state(5)
        vocab = Vocabulary([f"t{i}" for i in range(9)])
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_state(state, vocab, first)
        loaded = load_checkpoint(first)
        save_checkpoint(
            second, vocab=loaded.vocab, encoder=loaded.encoder, generator=loaded.generator,
            critic_x=loaded.critic_x, critic_z=loaded.critic_z, classifier=loaded.classifier,
            config=loaded.config, seed=loaded.seed, doc_freq=loaded.doc_freq,
            train_doc_count=loaded.train_doc_count)
        assert first.read_bytes() == second.read_bytes()

    def test_inference_identical_after_reload(self, tmp_path):
        state = trained_state(6)
        vocab = Vocabulary([f"t{i}" for i in range(9)])
        path = tmp_path / "model.ckpt"
        save_state(state, vocab, path)
        loaded = load_checkpoint(path)
        rows = np.random.default_rng(7).uniform(size=(12, 9))
        rows /= rows.sum(axis=1, keepdims=True)
        before, _ = state.encoder.forward(rows, train=False)
        after, _ = loaded.encoder.forward(rows, train=False)
        np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("supervised", [False, True])
    def test_load_draws_no_random_number(self, tmp_path, monkeypatch, supervised):
        # the networks are built uninitialised and filled from the file: no
        # placeholder weights are drawn only to be overwritten
        state = trained_state(18, supervised=supervised)
        path = tmp_path / "model.ckpt"
        save_state(state, Vocabulary([f"t{i}" for i in range(9)]), path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        loaded = load_checkpoint(path)
        for name in ("encoder", "generator", "critic_x", "critic_z", "classifier"):
            want = getattr(state, name)
            if want is None:
                assert getattr(loaded, name) is None
                continue
            got = getattr(loaded, name).state()
            assert {key: arr.tobytes() for key, arr in got.items()} == {
                key: arr.tobytes() for key, arr in want.state().items()}, name

    @pytest.mark.parametrize("networks", [("G",), ("E",), ("E", "C"), ("D_X", "D_Z"), ()])
    @pytest.mark.parametrize("supervised", [False, True])
    def test_load_of_some_networks(self, tmp_path, networks, supervised):
        # the named networks hold the arrays a full load gives, byte for
        # byte; the others, and a classifier the file lacks, are None
        path = tmp_path / "model.ckpt"
        save_state(trained_state(20, supervised=supervised),
                   Vocabulary([f"t{i}" for i in range(9)]), path)
        full = load_checkpoint(path)
        part = load_checkpoint(path, networks=networks)
        for name, attr in (("E", "encoder"), ("G", "generator"), ("D_X", "critic_x"),
                           ("D_Z", "critic_z"), ("C", "classifier")):
            want, got = getattr(full, attr), getattr(part, attr)
            if name not in networks or want is None:
                assert got is None, name
                continue
            assert {key: arr.tobytes() for key, arr in got.state().items()} == {
                key: arr.tobytes() for key, arr in want.state().items()}, name
        assert part.vocab.tokens == full.vocab.tokens
        assert part.doc_freq.tobytes() == full.doc_freq.tobytes()
        assert (part.num_topics, part.num_classes, part.config, part.seed,
                part.train_doc_count) == (full.num_topics, full.num_classes, full.config,
                                          full.seed, full.train_doc_count)

    def test_config_echo_preserved(self, tmp_path):
        state = trained_state(8)
        vocab = Vocabulary([f"t{i}" for i in range(9)])
        path = tmp_path / "model.ckpt"
        save_state(state, vocab, path)
        loaded = load_checkpoint(path)
        assert loaded.config["lambda1_hat"] == 2.0
        assert loaded.config["clip_c"] == 0.01
        assert loaded.config["critic_steps"] == 2


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        state = trained_state(9)
        vocab = Vocabulary([f"t{i}" for i in range(9)])
        path = tmp_path / "model.ckpt"
        save_state(state, vocab, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_file_cut_inside_the_vocabulary(self, tmp_path):
        # every cut, through a length prefix or a token, is a truncation
        path = tmp_path / "model.ckpt"
        save_state(trained_state(9), Vocabulary([f"t{i}" for i in range(9)]), path)
        blob = path.read_bytes()
        for cut in range(8 + 1 + 16 + 4, 8 + 1 + 16 + 4 + 9 * 4):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError, match="truncated"):
                load_checkpoint(path)

    def test_tampered_dims(self, tmp_path):
        state = trained_state(10)
        vocab = Vocabulary([f"t{i}" for i in range(9)])
        path = tmp_path / "model.ckpt"
        save_state(state, vocab, path)
        blob = bytearray(path.read_bytes())
        # num_topics lives right after the magic and mode byte
        blob[9] = blob[9] + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, capsys):
        state = trained_state(11)
        vocab = Vocabulary([f"t{i}" for i in range(9)])
        path = tmp_path / "model.ckpt"
        save_state(state, vocab, path)
        path.write_bytes(path.read_bytes() + b"\x00junk\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert main(["topics", "--ckpt", str(path)]) == 2

    def test_deeply_nested_config_echo_is_exit_2(self, tmp_path, capsys):
        # nesting deeper than json's recursion limit, spliced over the echo
        # of a saved file
        state = trained_state(21)
        path = tmp_path / "model.ckpt"
        save_state(state, Vocabulary([f"t{i}" for i in range(9)]), path)
        blob = path.read_bytes()
        echo = json.dumps(state.config.as_dict(), sort_keys=True).encode("utf-8")
        at = blob.index(struct.pack("<I", len(echo)) + echo)
        nested = b"[" * 200000 + b"]" * 200000
        path.write_bytes(blob[:at] + struct.pack("<I", len(nested)) + nested
                         + blob[at + 4 + len(echo):])
        with pytest.raises(CheckpointError, match="invalid config echo"):
            load_checkpoint(path)
        assert main(["topics", "--ckpt", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid config echo\n"

    @pytest.mark.parametrize("data_dir", [5, True, ["a"], {"x": 1}, None])
    def test_data_dir_that_is_not_a_string_is_exit_2(self, tmp_path, capsys, data_dir):
        # eval-coherence without --reference makes a Path of it
        state = trained_state(20)
        path = tmp_path / "model.ckpt"
        save_state(state, Vocabulary([f"t{i}" for i in range(9)]), path,
                   config=state.config.as_dict() | {"data_dir": data_dir})
        with pytest.raises(CheckpointError, match="data_dir is not a string"):
            load_checkpoint(path)
        assert main(["eval-coherence", "--ckpt", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config echo's data_dir is not a string\n"

    def infer_exit(self, tmp_path, capsys, **stats):
        """infer's exit code and stderr with a checkpoint saved with stats."""
        path = tmp_path / "model.ckpt"
        save_state(trained_state(19), Vocabulary([f"t{i}" for i in range(9)]), path, **stats)
        docs = tmp_path / "docs.txt"
        docs.write_text("t0 t1 t2\nt3 t4\n")
        code = main(["infer", "--ckpt", str(path), "--docs", str(docs)])
        captured = capsys.readouterr()
        assert (captured.out == "") == (code != 0)
        return code, captured.err

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_training_documents_is_exit_2(self, tmp_path, capsys, count):
        # a count of 0 would make infer divide by zero in log and give every
        # document the uniform row, with exit 0
        code, err = self.infer_exit(tmp_path, capsys, doc_freq=np.zeros(9, dtype=np.int64),
                                    train_doc_count=count)
        assert code == 2
        assert f"training document count {count} is below 2" in err

    def test_document_frequency_above_the_document_count_is_exit_2(self, tmp_path, capsys):
        doc_freq = np.arange(9) + 1
        doc_freq[4] = 41
        code, err = self.infer_exit(tmp_path, capsys, doc_freq=doc_freq, train_doc_count=40)
        assert code == 2
        assert "document frequency of 41 exceeds the training document count 40" in err
        doc_freq[4] = 40   # every training document holds the word: valid
        assert self.infer_exit(tmp_path, capsys, doc_freq=doc_freq, train_doc_count=40)[0] == 0


def _layout(blob: bytes) -> tuple[list[int], list[tuple[int, int]]]:
    """Byte offsets of the mode byte, the dims, the token count, and every
    token and blob name with its u16 length prefix, in a TOMCAT01 file; and
    the (start, end) byte range of every blob's float data."""
    pos = 8 + 1 + 16
    offsets = list(range(8, pos + 4))
    data = []
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, pos)
        offsets.extend(range(pos, pos + 2 + n))
        pos += 2 + n
    (count,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, pos)
        offsets.extend(range(pos, pos + 2 + n))
        pos += 2 + n
        (rank,) = struct.unpack_from("<B", blob, pos)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 1)
        pos += 1 + 4 * rank
        data.append((pos, pos + 8 * int(np.prod(dims))))
        pos = data[-1][1]
    return offsets, data


class TestCorruptionFuzz:
    def test_header_and_text_field_byte_flips_exit_0_or_2(self, tmp_path, capsys):
        # every single-byte corruption of the dims, the vocabulary and the
        # blob names either still loads or is reported as a corrupt artefact;
        # a corrupt dim must not reach an allocation
        state = trained_state(12)
        vocab = Vocabulary(["alpha", "beta", "gamma", "d\u00e9lta", "\u03b5psilon",
                            "zeta", "eta", "theta", "iota"])
        path = tmp_path / "model.ckpt"
        save_state(state, vocab, path)
        clean = path.read_bytes()
        offsets, _ = _layout(clean)
        assert len(offsets) > 300
        codes = set()
        for pos in offsets:
            for value in {0xFF, 0x00, clean[pos] ^ 0x01}:
                blob = bytearray(clean)
                blob[pos] = value
                path.write_bytes(bytes(blob))
                code = main(["topics", "--ckpt", str(path), "--top-n", "3"])
                assert code in (0, 2), (pos, value)
                codes.add(code)
        capsys.readouterr()
        assert codes == {0, 2}

    def test_undecodable_token_is_exit_2(self, tmp_path, capsys):
        state = trained_state(13)
        path = tmp_path / "model.ckpt"
        save_state(state, Vocabulary([f"t{i}" for i in range(9)]), path)
        blob = bytearray(path.read_bytes())
        blob[31] = 0xFF   # first byte of the first token
        path.write_bytes(bytes(blob))
        assert main(["topics", "--ckpt", str(path)]) == 2
        assert "decod" in capsys.readouterr().err

    def test_non_finite_blob_value_is_exit_2(self, tmp_path, capsys):
        # a float that is NaN or infinite in any blob is corruption, not a
        # model: loading it would print nan probabilities and exit 0
        state = trained_state(14)
        path = tmp_path / "model.ckpt"
        save_state(state, Vocabulary([f"t{i}" for i in range(9)]), path)
        clean = path.read_bytes()
        _, data = _layout(clean)
        assert len(data) > 20
        for start, end in data:
            at = start + 8 * ((end - start) // 16)
            for value in (b"\xff" * 8, struct.pack("<d", float("inf"))):
                path.write_bytes(clean[:at] + value + clean[at + 8:])
                with pytest.raises(CheckpointError, match="non-finite"):
                    load_checkpoint(path)
                assert main(["topics", "--ckpt", str(path), "--top-n", "3"]) == 2
        assert capsys.readouterr().out == ""
        path.write_bytes(clean)
        assert main(["topics", "--ckpt", str(path), "--top-n", "3"]) == 0

    @pytest.mark.parametrize("command", ["infer", "eval-coherence", "classify"])
    def test_non_finite_value_in_any_blob_is_exit_2_for_each_read_command(
            self, tmp_path, capsys, command):
        # a command builds only the networks it runs, yet reads and checks
        # every blob: a NaN or inf in a critic's blob is corruption too
        path = tmp_path / "model.ckpt"
        save_state(trained_state(14, supervised=True),
                   Vocabulary([f"t{i}" for i in range(9)]), path)
        docs, labels = tmp_path / "docs.txt", tmp_path / "labels.txt"
        docs.write_text("t0 t1 t2 t3\nt4 t5 t6\nt7 t8 t0 t4\n")
        labels.write_text("0\n1\n0\n")
        argv = [command, "--ckpt", str(path)] + {
            "infer": ["--docs", str(docs)],
            "eval-coherence": ["--reference", str(docs), "--top-n", "3"],
            "classify": ["--docs", str(docs), "--labels", str(labels)]}[command]
        clean = path.read_bytes()
        _, data = _layout(clean)
        assert len(data) == 40   # the eight arrays of each of the five networks
        for start, end in data:
            at = start + 8 * ((end - start) // 16)
            for value in (b"\xff" * 8, struct.pack("<d", float("inf"))):
                path.write_bytes(clean[:at] + value + clean[at + 8:])
                assert main(argv) == 2, (start, value)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert "non-finite" in captured.err
        path.write_bytes(clean)
        assert main(argv) == 0

    @pytest.mark.parametrize("index", [0, 8191, 8192, -1])
    def test_non_finite_value_anywhere_in_a_large_blob_not_built(self, tmp_path, capsys,
                                                                  index):
        # the floats of a network that is not built pass through the
        # reader's buffer a chunk at a time: every chunk is checked
        nets, vocab = wide_networks()
        nets["D_X"].layers[0].W.data.reshape(-1)[index] = np.nan
        path = tmp_path / "model.ckpt"
        save_networks(path, nets, vocab)
        with pytest.raises(CheckpointError, match="'D_X.0.W' holds a non-finite value"):
            load_checkpoint(path, networks=("G",))
        assert main(["topics", "--ckpt", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


def _split_blobs(data: bytes):
    """A TOMCAT01 file as the bytes before the blob count, a list of
    (blob name, blob record bytes) in file order, and the bytes after the
    blobs."""
    pos = 8 + 1 + 16
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, pos)
        pos += 2 + n
    head = data[:pos]
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    records = []
    for _ in range(count):
        start = pos
        (n,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2:pos + 2 + n].decode("utf-8")
        pos += 2 + n
        (rank,) = struct.unpack_from("<B", data, pos)
        dims = struct.unpack_from(f"<{rank}I", data, pos + 1)
        pos += 1 + 4 * rank + 8 * int(np.prod(dims))
        records.append((name, data[start:pos]))
    return head, records, data[pos:]


def _join_blobs(head: bytes, records, tail: bytes) -> bytes:
    return head + struct.pack("<I", len(records)) + b"".join(r for _, r in records) + tail


def _record(name: str, arr: np.ndarray):
    raw = name.encode("utf-8")
    return name, (struct.pack("<H", len(raw)) + raw + struct.pack("<B", arr.ndim)
                  + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.astype("<f8").tobytes())


class TestBlobNames:
    """The blob names of a checkpoint are exactly the arrays of its networks."""

    def saved(self, tmp_path, supervised=False):
        path = tmp_path / "model.ckpt"
        save_state(trained_state(15, supervised=supervised),
                   Vocabulary([f"t{i}" for i in range(9)]), path)
        return path

    def assert_corrupt(self, path, data, capsys, message):
        path.write_bytes(data)
        # a load that builds only the generator checks every blob all the same
        for networks in (None, ("G",)):
            with pytest.raises(CheckpointError, match=message):
                load_checkpoint(path, networks=networks)
        assert main(["topics", "--ckpt", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("supervised", [False, True])
    def test_blobs_are_written_in_table_order(self, tmp_path, supervised):
        path = self.saved(tmp_path, supervised)
        _, records, _ = _split_blobs(path.read_bytes())
        names = [name for name, _ in records]
        table = network_table(9, 3, 2 if supervised else 0)
        assert list(dict.fromkeys(name.split(".")[0] for name in names)) == [
            row[0] for row in table]
        nets = build_networks(table, 5, np.random.default_rng(0))
        assert names == [f"{net}.{key}" for net in nets for key in nets[net].state()]

    def test_repeated_blob_is_exit_2(self, tmp_path, capsys):
        # a second E.0.b used to replace the first without a word
        path = self.saved(tmp_path)
        head, records, tail = _split_blobs(path.read_bytes())
        records.append(_record("E.0.b", np.full(5, 0.25)))
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            "'E.0.b' is repeated")

    def test_blob_of_no_network_is_exit_2(self, tmp_path, capsys):
        path = self.saved(tmp_path)
        head, records, tail = _split_blobs(path.read_bytes())
        records.append(_record("X.junk", np.zeros(3)))
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            "'X.junk' belongs to no network")

    def test_empty_blob_is_exit_2(self, tmp_path, capsys):
        # a blob of no floats is read like any other, then fails its shape
        path = self.saved(tmp_path)
        head, records, tail = _split_blobs(path.read_bytes())
        records = [_record("E.0.b", np.zeros((0, 5))) if n == "E.0.b" else (n, r)
                   for n, r in records]
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            "blob 'E.0.b' has shape")

    def test_classifier_blob_in_unsupervised_file_is_exit_2(self, tmp_path, capsys):
        path = self.saved(tmp_path)
        head, records, tail = _split_blobs(path.read_bytes())
        (tmp_path / "sup").mkdir()
        sup = self.saved(tmp_path / "sup", supervised=True)
        _, sup_records, _ = _split_blobs(sup.read_bytes())
        records.extend(r for r in sup_records if r[0].startswith("C."))
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            "'C.0.W' belongs to no network")

    @pytest.mark.parametrize("name", ["G.2.running_var", "D_X.0.b", "C.2.gamma"])
    def test_missing_array_is_exit_2(self, tmp_path, capsys, name):
        path = self.saved(tmp_path, supervised=True)
        head, records, tail = _split_blobs(path.read_bytes())
        records = [r for r in records if r[0] != name]
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            f"'{name}' is missing")

    @pytest.mark.parametrize("name", ["G.0.W", "G.3.W", "D_X.0.W", "D_X.3.W",
                                      "D_Z.0.W", "D_Z.3.W"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_end_linear_disagreeing_with_dims_is_exit_2(self, tmp_path, capsys, name, axis):
        path = self.saved(tmp_path)
        head, records, tail = _split_blobs(path.read_bytes())
        loaded = load_checkpoint(path)
        net = {"G": loaded.generator, "D_X": loaded.critic_x, "D_Z": loaded.critic_z}[
            name.split(".")[0]]
        shape = list(net.state()[name.split(".", 1)[1]].shape)
        shape[axis] += 1
        records = [_record(name, np.zeros(shape)) if n == name else (n, r) for n, r in records]
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            f"blob {name!r} has shape")

    @pytest.mark.parametrize("name", ["E.2.gamma", "G.2.running_var", "D_X.2.beta", "D_Z.0.b",
                                      "C.3.b"])
    def test_middle_array_of_wrong_length_is_exit_2(self, tmp_path, capsys, name):
        path = self.saved(tmp_path, supervised=True)
        head, records, tail = _split_blobs(path.read_bytes())
        (length,) = state_shapes(network_table(9, 3, 2), 5)[name]
        records = [_record(name, np.zeros(length + 1)) if n == name else (n, r)
                   for n, r in records]
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            f"blob {name!r} has shape")

    def test_missing_end_linear_is_exit_2(self, tmp_path, capsys):
        path = self.saved(tmp_path)
        head, records, tail = _split_blobs(path.read_bytes())
        records = [r for r in records if r[0] != "D_Z.3.W"]
        self.assert_corrupt(path, _join_blobs(head, records, tail), capsys,
                            "'D_Z.3.W' is missing")


    @pytest.mark.parametrize("supervised, num_classes", [(False, 7), (False, 1), (True, 0),
                                                          (True, 1)])
    def test_class_count_without_its_classifier_is_exit_2(self, tmp_path, capsys, supervised,
                                                          num_classes):
        # an L that no classifier has is a dim the networks disagree with
        path = self.saved(tmp_path, supervised)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8 + 1 + 12, num_classes)
        self.assert_corrupt(path, bytes(data), capsys, f"L={num_classes} out of range")


class TestSaveReadsDims:
    @pytest.mark.parametrize("supervised", [False, True])
    def test_header_dims_come_from_the_networks(self, tmp_path, supervised):
        path = tmp_path / "model.ckpt"
        save_state(trained_state(16, supervised=supervised, num_topics=4),
                   Vocabulary([f"t{i}" for i in range(9)]), path)
        assert struct.unpack_from("<4I", path.read_bytes(), 9) == (
            4, 9, 5, 2 if supervised else 0)

    def test_networks_of_other_widths_are_not_saved(self, tmp_path):
        # a generator of another hidden width than the encoder's would make
        # a file that no load accepts
        state = trained_state(17)
        state.generator = build_networks(network_table(9, 3), 6, np.random.default_rng(0))["G"]
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="'G.0.W' has shape"):
            save_state(state, Vocabulary([f"t{i}" for i in range(9)]), path)
        assert not path.exists()


def wide_networks():
    """Fresh supervised V=2000, K=20, H=100 networks and their vocabulary."""
    vocab = Vocabulary([f"t{i}" for i in range(2000)])
    return build_networks(network_table(vocab.size, 20, 4), 100, np.random.default_rng(0)), vocab


def save_networks(path, nets, vocab):
    save_checkpoint(path, vocab=vocab, encoder=nets["E"], generator=nets["G"],
                    critic_x=nets["D_X"], critic_z=nets["D_Z"], classifier=nets["C"],
                    config={}, seed=0, doc_freq=np.ones(vocab.size, dtype=np.int64),
                    train_doc_count=2)


class TestSaveMemory:
    def test_peak_allocation_below_a_quarter_of_the_file_size(self, tmp_path):
        # each array is written from its own memory: joined, the parts were
        # the file twice over
        nets, vocab = wide_networks()
        path = tmp_path / "model.ckpt"
        tracemalloc.start()
        try:
            save_networks(path, nets, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 4_000_000
        assert peak < 0.25 * size, peak / size
        loaded = load_checkpoint(path)
        assert loaded.generator.state()["3.W"].tobytes() == nets["G"].state()["3.W"].tobytes()


class TestLoadMemory:
    def test_peak_allocation_below_two_and_a_half_file_sizes(self, tmp_path):
        # each blob is read straight into the array its network keeps, and
        # the networks allocate no gradient buffer: the weights, not four
        # copies of each weight
        nets, vocab = wide_networks()
        path = tmp_path / "model.ckpt"
        save_networks(path, nets, vocab)
        size = path.stat().st_size
        assert size > 4_000_000
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * size, peak / size
        for name, net in nets.items():
            loaded = {"E": ckpt.encoder, "G": ckpt.generator, "D_X": ckpt.critic_x,
                      "D_Z": ckpt.critic_z, "C": ckpt.classifier}[name]
            for key, arr in net.state().items():
                assert loaded.state()[key].tobytes() == arr.tobytes(), (name, key)

    def test_load_of_the_generator_alone_peaks_below_the_file_size(self, tmp_path):
        # the encoder's, the critics' and the classifier's floats pass through
        # one small buffer, and only the generator is built
        nets, vocab = wide_networks()
        path = tmp_path / "model.ckpt"
        save_networks(path, nets, vocab)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path, networks=("G",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0 * size, peak / size
        assert (ckpt.encoder, ckpt.critic_x, ckpt.critic_z, ckpt.classifier) == (None,) * 4
        for key, arr in nets["G"].state().items():
            assert ckpt.generator.state()[key].tobytes() == arr.tobytes(), key
