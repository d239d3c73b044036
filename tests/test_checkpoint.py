import struct

import numpy as np
import pytest

from tomcat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from tomcat.cli import main
from tomcat.corpus import Vocabulary
from tomcat.training import TrainConfig, train


def trained_state(seed, supervised=False, num_words=9, num_topics=3):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.01, 1, size=(40, num_words))
    rows /= rows.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 2, size=40) if supervised else None
    cfg = TrainConfig(num_topics=num_topics, hidden=5, batch_size=8, iterations=2,
                      critic_steps=2, supervised=supervised, seed=seed)
    return train(rows, cfg, labels=labels)


def save_state(state, vocab, path):
    save_checkpoint(
        path,
        vocab=vocab,
        encoder=state.encoder,
        generator=state.generator,
        critic_x=state.critic_x,
        critic_z=state.critic_z,
        classifier=state.classifier,
        config=state.config.as_dict(),
        seed=state.config.seed,
        doc_freq=np.arange(vocab.size) + 1,
        train_doc_count=40,
        hidden=state.config.hidden,
        num_topics=state.config.num_topics,
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

        assert loaded.supervised == supervised
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
            train_doc_count=loaded.train_doc_count, hidden=loaded.hidden,
            num_topics=loaded.num_topics)
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


def _header_and_text_offsets(blob: bytes) -> list[int]:
    """Byte offsets of the mode byte, the dims, the token count, and every
    token and blob name with its u16 length prefix, in a TOMCAT01 file."""
    pos = 8 + 1 + 16
    offsets = list(range(8, pos + 4))
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
        pos += 1 + 4 * rank + 8 * int(np.prod(dims))
    return offsets


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
        offsets = _header_and_text_offsets(clean)
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
