"""Bit-exact binary model persistence.

Layout (all integers little-endian): magic "TOMCAT01", a mode byte
(0 unsupervised / 1 supervised), the dims K/V/H/L, the vocabulary, one blob
per parameter or running-statistic array (name, rank, dims, float64 data;
exactly the arrays of the mode's networks, in network_table order), a JSON
echo of the training config, the RNG seed, and finally the training-split
document frequencies needed to TF-IDF-transform unseen documents at
inference time. Nothing may follow them. Every stored float must be
finite. Files are written atomically.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .fileio import write_atomic
from .networks import Network, build_networks, end_weight_shapes, network_table

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


def check_vocabulary(vocab: Vocabulary) -> None:
    """Raise ValueError if a token is too long for a checkpoint to store."""
    for token in vocab.tokens:
        size = len(token.encode("utf-8"))
        if size > MAX_TOKEN_BYTES:
            raise ValueError(
                f"token {token[:16]!r}... is {size} UTF-8 bytes; a checkpoint "
                f"stores tokens of at most {MAX_TOKEN_BYTES} bytes")


def _blob_arrays(networks) -> dict[str, np.ndarray]:
    """Every array of the networks by blob name ("E.0.W", "G.2.gamma", ...),
    network by network in the given order."""
    return {f"{net.name}.{key}": arr for net in networks for key, arr in net.state().items()}


def _dims_problem(arrays: dict[str, np.ndarray], table, hidden: int) -> str | None:
    """What keeps the first and last Linear weights of the table's networks
    from matching the dims, or None."""
    for name, shape in end_weight_shapes(table, hidden).items():
        if name not in arrays:
            return f"blob {name!r} is missing"
        if arrays[name].shape != shape:
            return f"blob {name!r} has shape {arrays[name].shape}, the dims give {shape}"
    return None


def save_checkpoint(path: str | Path, *, vocab: Vocabulary, encoder: Network,
                    generator: Network, critic_x: Network, critic_z: Network,
                    classifier: Network | None, config: dict, seed: int,
                    doc_freq: np.ndarray, train_doc_count: int) -> None:
    """Write the networks and the vocabulary. The dims K and H come from the
    encoder and L from the classifier; every network must agree with them."""
    check_vocabulary(vocab)
    supervised = classifier is not None
    _, hidden, num_topics = encoder.widths
    num_classes = classifier.widths[2] if supervised else 0
    table = network_table(vocab.size, num_topics, num_classes)
    given = {net.name: net for net in (encoder, generator, critic_x, critic_z, classifier)
             if net is not None}
    blobs = _blob_arrays(given[name] for name, *_ in table)
    problem = _dims_problem(blobs, table, hidden)
    if problem:
        raise ValueError(f"the networks disagree with their dims: {problem}")

    parts = [MAGIC, struct.pack("<B", 1 if supervised else 0),
             struct.pack("<4I", num_topics, vocab.size, hidden, num_classes)]

    parts.append(struct.pack("<I", vocab.size))
    for token in vocab.tokens:
        raw = token.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)

    parts.append(struct.pack("<I", len(blobs)))
    for name, arr in blobs.items():
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

    write_atomic(path, b"".join(parts))


class _Reader:
    """Fields read in order from a view of the file's bytes; nothing is
    copied until a field is decoded."""

    def __init__(self, buf: bytes):
        self.buf = memoryview(buf)
        self.pos = 0

    def take(self, n: int) -> memoryview:
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
            return str(self.take(n), "utf-8")
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
        if name in arrays:
            raise CheckpointError(f"blob {name!r} is repeated")
        dims = reader.unpack(f"<{rank}I")
        size = math.prod(dims)
        # a view of the file's bytes, copied once, into its network
        data = np.frombuffer(reader.take(size * 8), dtype="<f8")
        if not np.isfinite(data).all():   # training never saves a NaN or inf
            raise CheckpointError(f"blob {name!r} holds a non-finite value")
        arrays[name] = data.reshape(dims)

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
    if min(num_topics, hidden) < 1 or (num_classes < 2 if mode else num_classes != 0):
        raise CheckpointError(f"dims K={num_topics} H={hidden} L={num_classes} out of range "
                              f"for a {'supervised' if mode else 'unsupervised'} checkpoint")
    table = network_table(num_words, num_topics, num_classes if mode else 0)
    problem = _dims_problem(arrays, table, hidden)
    if problem:
        raise CheckpointError(f"blob shapes inconsistent with dims: {problem}")

    # placeholder weights, overwritten below
    networks = build_networks(table, hidden, np.random.default_rng(0))
    expected = _blob_arrays(networks.values())
    odd = sorted(arrays.keys() ^ expected.keys())   # blob names must be the networks' arrays
    if odd:
        raise CheckpointError(f"blob {odd[0]!r} " + ("is missing" if odd[0] in expected else
                                                     "belongs to no network of this checkpoint"))
    for net in networks.values():
        try:
            net.load_state({key: arrays[f"{net.name}.{key}"] for key in net.state()})
        except ValueError as exc:
            raise CheckpointError(f"blob shapes inconsistent with dims: {exc}") from exc

    return Checkpoint(supervised=bool(mode), num_topics=num_topics, num_words=num_words,
                      hidden=hidden, num_classes=num_classes, vocab=vocab,
                      encoder=networks["E"], generator=networks["G"],
                      critic_x=networks["D_X"], critic_z=networks["D_Z"],
                      classifier=networks.get("C"), config=config,
                      seed=seed, doc_freq=doc_freq, train_doc_count=train_doc_count)
