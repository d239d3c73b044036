"""Bit-exact binary model persistence.

Layout (all integers little-endian): magic "TOMCAT01", a mode byte
(0 unsupervised / 1 supervised), the dims K/V/H/L, the vocabulary, one blob
per parameter or running-statistic array (name, rank, dims, float64 data),
a JSON echo of the training config, the RNG seed, and finally the
training-split document frequencies needed to TF-IDF-transform unseen
documents at inference time. Nothing may follow them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .networks import Network, make_classifier, make_critic, make_encoder, make_generator

MAGIC = b"TOMCAT01"
MAX_TOKEN_BYTES = 0xFFFF  # token lengths are stored as u16


class CheckpointError(Exception):
    """The checkpoint file is corrupt or structurally inconsistent."""


@dataclass
class Checkpoint:
    supervised: bool
    num_topics: int
    num_words: int
    hidden: int
    num_classes: int
    vocab: Vocabulary
    encoder: Network
    generator: Network
    critic_x: Network
    critic_z: Network
    classifier: Network | None
    config: dict
    seed: int
    doc_freq: np.ndarray
    train_doc_count: int

    def networks(self) -> list[Network]:
        nets = [self.encoder, self.generator, self.critic_x, self.critic_z]
        if self.classifier is not None:
            nets.append(self.classifier)
        return nets


def check_vocabulary(vocab: Vocabulary) -> None:
    """Raise ValueError if a token is too long for a checkpoint to store."""
    for token in vocab.tokens:
        size = len(token.encode("utf-8"))
        if size > MAX_TOKEN_BYTES:
            raise ValueError(
                f"token {token[:16]!r}... is {size} UTF-8 bytes; a checkpoint "
                f"stores tokens of at most {MAX_TOKEN_BYTES} bytes")


def _network_blobs(name: str, net: Network) -> list[tuple[str, np.ndarray]]:
    return [(f"{name}.{key}", arr) for key, arr in net.state().items()]


def save_checkpoint(path: str | Path, *, vocab: Vocabulary, encoder: Network,
                    generator: Network, critic_x: Network, critic_z: Network,
                    classifier: Network | None, config: dict, seed: int,
                    doc_freq: np.ndarray, train_doc_count: int,
                    hidden: int, num_topics: int) -> None:
    check_vocabulary(vocab)
    supervised = classifier is not None
    num_classes = classifier.layers[-2].out_dim if supervised else 0
    parts = [MAGIC, struct.pack("<B", 1 if supervised else 0),
             struct.pack("<4I", num_topics, vocab.size, hidden, num_classes)]

    parts.append(struct.pack("<I", vocab.size))
    for token in vocab.tokens:
        raw = token.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)

    blobs = []
    blobs.extend(_network_blobs("E", encoder))
    blobs.extend(_network_blobs("G", generator))
    blobs.extend(_network_blobs("D_X", critic_x))
    blobs.extend(_network_blobs("D_Z", critic_z))
    if supervised:
        blobs.extend(_network_blobs("C", classifier))
    parts.append(struct.pack("<I", len(blobs)))
    for name, arr in blobs:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())

    config_raw = json.dumps(config, sort_keys=True).encode("utf-8")
    parts.append(struct.pack("<I", len(config_raw)))
    parts.append(config_raw)
    parts.append(struct.pack("<q", seed))

    parts.append(struct.pack("<I", train_doc_count))
    parts.append(np.ascontiguousarray(doc_freq, dtype="<u4").tobytes())

    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError("checkpoint truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        try:
            return struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        except struct.error as exc:
            raise CheckpointError(f"undecodable field: {exc}") from exc

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"undecodable text field: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    reader = _Reader(Path(path).read_bytes())
    if reader.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path} is not a model checkpoint (bad magic)")
    (mode,) = reader.unpack("<B")
    if mode not in (0, 1):
        raise CheckpointError(f"unknown mode byte {mode}")
    num_topics, num_words, hidden, num_classes = reader.unpack("<4I")

    (token_count,) = reader.unpack("<I")
    if token_count != num_words:
        raise CheckpointError("vocabulary size disagrees with dims")
    tokens = []
    for _ in range(token_count):
        (n,) = reader.unpack("<H")
        tokens.append(reader.text(n))
    try:
        vocab = Vocabulary(tokens)
    except ValueError as exc:
        raise CheckpointError(f"invalid vocabulary in checkpoint: {exc}") from exc

    (blob_count,) = reader.unpack("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(blob_count):
        (n,) = reader.unpack("<H")
        name = reader.text(n)
        (rank,) = reader.unpack("<B")
        if rank not in (1, 2):   # every stored array is a vector or a matrix
            raise CheckpointError(f"blob {name!r} has rank {rank}")
        dims = reader.unpack(f"<{rank}I")
        size = math.prod(dims)
        data = np.frombuffer(reader.take(size * 8), dtype="<f8")
        arrays[name] = data.reshape(dims).astype(np.float64)

    (config_len,) = reader.unpack("<I")
    try:
        config = json.loads(reader.text(config_len))
    except json.JSONDecodeError as exc:
        raise CheckpointError("invalid config echo") from exc
    if not isinstance(config, dict):
        raise CheckpointError("config echo is not an object")
    (seed,) = reader.unpack("<q")
    (train_doc_count,) = reader.unpack("<I")
    doc_freq = np.frombuffer(reader.take(num_words * 4), dtype="<u4").astype(np.int64)
    if reader.pos != len(reader.buf):
        raise CheckpointError(f"{len(reader.buf) - reader.pos} unexpected bytes after the end")

    # check the dims against stored blobs before building any network, so a
    # corrupt dim cannot ask for a huge allocation
    expected = {"E.0.W": (hidden, num_words), "E.3.W": (num_topics, hidden)}
    if mode:
        expected["C.3.W"] = (num_classes, hidden)
    if min(num_topics, hidden) < 1 or (mode and num_classes < 2) or any(
            name not in arrays or arrays[name].shape != shape
            for name, shape in expected.items()):
        raise CheckpointError("blob shapes inconsistent with dims")

    rng = np.random.default_rng(0)  # placeholder weights, overwritten below
    encoder = make_encoder(num_words, hidden, num_topics, rng)
    generator = make_generator(num_topics, hidden, num_words, rng)
    critic_x = make_critic("D_X", num_words, hidden, rng)
    critic_z = make_critic("D_Z", num_topics, hidden, rng)
    classifier = make_classifier(num_topics, hidden, num_classes, rng) if mode else None

    named = [("E", encoder), ("G", generator), ("D_X", critic_x), ("D_Z", critic_z)]
    if classifier is not None:
        named.append(("C", classifier))
    for name, net in named:
        prefix = f"{name}."
        subset = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
        try:
            net.load_state(subset)
        except ValueError as exc:
            raise CheckpointError(f"blob shapes inconsistent with dims: {exc}") from exc

    return Checkpoint(supervised=bool(mode), num_topics=num_topics, num_words=num_words,
                      hidden=hidden, num_classes=num_classes, vocab=vocab,
                      encoder=encoder, generator=generator, critic_x=critic_x,
                      critic_z=critic_z, classifier=classifier, config=config,
                      seed=seed, doc_freq=doc_freq, train_doc_count=train_doc_count)
