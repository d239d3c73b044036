"""Bit-exact binary model persistence.

Layout (all integers little-endian): magic "TOMCAT01", a mode byte
(0 unsupervised / 1 supervised), the dims K/V/H/L, the vocabulary, one blob
per parameter or running-statistic array (name, rank, dims, float64 data;
exactly the arrays of the mode's networks, in network_table order, each of
the shape networks.state_shapes gives for the dims, checked in one pass
before any network is built), a JSON echo of the training config (its
data_dir, if any, a string), the RNG seed, and finally the training-split
document count (at least 2) and document frequencies (none above that
count) needed to TF-IDF-transform unseen documents at inference time.
Nothing may follow them. Every stored float must be finite. Files are
written atomically, each array straight from its own memory, and read
back field by field, each array straight into the one its network keeps.
A load may build only some of the networks: every blob is still read and
checked, and the floats of the others pass through one small buffer.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Vocabulary
from .fileio import write_atomic
from .networks import Network, build_networks, network_table, state_shapes

MAGIC = b"TOMCAT01"
MAX_TOKEN_BYTES = 0xFFFF  # token lengths are stored as u16


class CheckpointError(Exception):
    """The checkpoint file is corrupt or structurally inconsistent."""


@dataclass
class Checkpoint:
    """A loaded checkpoint; a network that the load did not build is None."""

    num_topics: int
    num_classes: int
    vocab: Vocabulary
    encoder: Network | None
    generator: Network | None
    critic_x: Network | None
    critic_z: Network | None
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


def _layout_problem(dims: dict[str, tuple[int, ...]], table, hidden: int) -> str | None:
    """The first way in which arrays of the given shapes, by blob name, are
    not exactly the arrays that build_networks(table, hidden, ...) makes,
    or None."""
    shapes = state_shapes(table, hidden)
    for name, shape in shapes.items():
        if name not in dims:
            return f"blob {name!r} is missing"
        if dims[name] != shape:
            return f"blob {name!r} has shape {dims[name]}, the dims give {shape}"
    for name in dims:
        if name not in shapes:
            return f"blob {name!r} belongs to no network of this checkpoint"
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
    problem = _layout_problem({name: arr.shape for name, arr in blobs.items()}, table, hidden)
    if problem:
        raise ValueError(f"the networks disagree with their dims: {problem}")

    # the file is streamed: small fields are joined into one part up to each
    # array, which is written from its own memory
    parts, fields = [], [MAGIC, struct.pack("<B", 1 if supervised else 0),
                         struct.pack("<4I", num_topics, vocab.size, hidden, num_classes)]

    fields.append(struct.pack("<I", vocab.size))
    for token in vocab.tokens:
        raw = token.encode("utf-8")
        fields.append(struct.pack("<H", len(raw)))
        fields.append(raw)

    fields.append(struct.pack("<I", len(blobs)))
    for name, arr in blobs.items():
        raw = name.encode("utf-8")
        fields.append(struct.pack("<H", len(raw)))
        fields.append(raw)
        fields.append(struct.pack("<B", arr.ndim))
        fields.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts += [b"".join(fields), np.ascontiguousarray(arr, dtype="<f8")]
        fields = []

    config_raw = json.dumps(config, sort_keys=True).encode("utf-8")
    fields.append(struct.pack("<I", len(config_raw)))
    fields.append(config_raw)
    fields.append(struct.pack("<q", seed))

    fields.append(struct.pack("<I", train_doc_count))
    parts += [b"".join(fields), np.ascontiguousarray(doc_freq, dtype="<u4")]

    write_atomic(path, *parts)


class _Reader:
    """Fields read in order from an open checkpoint file. A read longer
    than the rest of the file is refused before anything is made for it."""

    CHUNK = 8192   # floats passed through at a time by finite_floats

    def __init__(self, file):
        self.file = file
        self.left = os.fstat(file.fileno()).st_size   # bytes not read yet
        self.chunk = np.empty(self.CHUNK, dtype="<f8")

    def take(self, n: int) -> bytes:
        if n > self.left:
            raise CheckpointError("checkpoint truncated")
        self.left -= n
        return self.file.read(n)

    def _fill(self, out: np.ndarray) -> None:
        if self.file.readinto(out) < out.nbytes:   # cut since fstat
            raise CheckpointError("checkpoint truncated")

    def floats(self, dims: tuple[int, ...]) -> np.ndarray:
        """A new array of shape dims, its little-endian float64s read
        straight into it from the file."""
        self.take_floats(math.prod(dims))
        out = np.empty(dims, dtype="<f8")
        self._fill(out)
        return out

    def take_floats(self, count: int) -> None:
        """Refuse count float64s that the rest of the file cannot hold, and
        count them as read."""
        if 8 * count > self.left:
            raise CheckpointError("checkpoint truncated")
        self.left -= 8 * count

    def finite_floats(self, dims: tuple[int, ...]) -> bool:
        """Whether the float64s of an array of shape dims, read through one
        reused buffer of CHUNK floats and kept nowhere, are all finite."""
        count = math.prod(dims)
        self.take_floats(count)
        for start in range(0, count, self.CHUNK):
            part = self.chunk[:min(self.CHUNK, count - start)]
            self._fill(part)
            if not np.isfinite(part).all():
                return False
        return True

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

    def tokens(self, count: int) -> list[str]:
        """count strings, each after its u16 length prefix."""
        read, tokens = self.file.read, []
        try:
            for _ in range(count):
                size = int.from_bytes(read(2), "little")
                raw = read(size)
                self.left -= 2 + size
                if self.left < 0:   # the prefix or the string cut short by the end
                    raise CheckpointError("checkpoint truncated")
                tokens.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"undecodable text field: {exc}") from exc
        return tokens


def load_checkpoint(path: str | Path, networks: Collection[str] | None = None) -> Checkpoint:
    """The checkpoint at path, with only the named networks (network_table
    names) built; None builds every network of the file's mode. Every blob
    is read and checked all the same, in file order."""
    with open(path, "rb") as file:
        reader = _Reader(file)
        if reader.take(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path} is not a model checkpoint (bad magic)")
        (mode,) = reader.unpack("<B")
        if mode not in (0, 1):
            raise CheckpointError(f"unknown mode byte {mode}")
        num_topics, num_words, hidden, num_classes = reader.unpack("<4I")

        (token_count,) = reader.unpack("<I")
        if token_count != num_words:
            raise CheckpointError("vocabulary size disagrees with dims")
        try:
            vocab = Vocabulary(reader.tokens(token_count))
        except ValueError as exc:
            raise CheckpointError(f"invalid vocabulary in checkpoint: {exc}") from exc

        (blob_count,) = reader.unpack("<I")
        dims: dict[str, tuple[int, ...]] = {}
        arrays: dict[str, np.ndarray] = {}
        for _ in range(blob_count):
            (n,) = reader.unpack("<H")
            name = reader.text(n)
            (rank,) = reader.unpack("<B")
            if rank not in (1, 2):   # every stored array is a vector or a matrix
                raise CheckpointError(f"blob {name!r} has rank {rank}")
            if name in dims:
                raise CheckpointError(f"blob {name!r} is repeated")
            dims[name] = reader.unpack(f"<{rank}I")
            if networks is None or name.split(".", 1)[0] in networks:
                # read into the array its network takes
                arrays[name] = reader.floats(dims[name])
                finite = np.isfinite(arrays[name]).all()
            else:
                finite = reader.finite_floats(dims[name])
            if not finite:   # training never saves a NaN or inf
                raise CheckpointError(f"blob {name!r} holds a non-finite value")

        (config_len,) = reader.unpack("<I")
        try:
            config = json.loads(reader.text(config_len))
        except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: deep nesting
            raise CheckpointError("invalid config echo") from exc
        if not isinstance(config, dict):
            raise CheckpointError("config echo is not an object")
        if not isinstance(config.get("data_dir", ""), str):   # train echoes a path string
            raise CheckpointError("config echo's data_dir is not a string")
        (seed,) = reader.unpack("<q")
        (train_doc_count,) = reader.unpack("<I")
        doc_freq = np.frombuffer(reader.take(num_words * 4), dtype="<u4").astype(np.int64)
        if reader.left:
            raise CheckpointError(f"{reader.left} unexpected bytes after the end")
    # tfidf needs 2 documents, and a word is in at most every one of them
    if train_doc_count < 2:
        raise CheckpointError(f"training document count {train_doc_count} is below 2")
    if doc_freq.max() > train_doc_count:
        raise CheckpointError(f"a document frequency of {doc_freq.max()} exceeds the "
                              f"training document count {train_doc_count}")

    # check the blobs against the dims before building any network, so a
    # corrupt dim cannot ask for a huge allocation
    if min(num_topics, hidden) < 1 or (num_classes < 2 if mode else num_classes != 0):
        raise CheckpointError(f"dims K={num_topics} H={hidden} L={num_classes} out of range "
                              f"for a {'supervised' if mode else 'unsupervised'} checkpoint")
    table = network_table(num_words, num_topics, num_classes)
    problem = _layout_problem(dims, table, hidden)
    if problem:
        raise CheckpointError(f"blobs disagree with the dims: {problem}")
    # uninitialised weights, every array taken from the file below
    built = build_networks([row for row in table if networks is None or row[0] in networks],
                           hidden, None)
    for net in built.values():
        net.adopt_state(arrays)

    return Checkpoint(num_topics=num_topics, num_classes=num_classes, vocab=vocab,
                      encoder=built.get("E"), generator=built.get("G"),
                      critic_x=built.get("D_X"), critic_z=built.get("D_Z"),
                      classifier=built.get("C"), config=config,
                      seed=seed, doc_freq=doc_freq, train_doc_count=train_doc_count)
