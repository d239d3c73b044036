"""Corpus ingestion: vocabulary construction and normalized TF-IDF rows.

A corpus is a (documents, vocabulary) count matrix, held as blocks of CSR
rows and weighted a block of documents at a time. The smoothed TF-IDF of
entry (i, j) is tf(i, j) * log(N / (1 + df(j))); negative weights (words
present in every document) are clamped to zero so that every retained row
normalizes onto the vocabulary simplex.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import stat
import struct
import sys
import zlib
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .fileio import write_atomic


class CorpusError(ValueError):
    """Unusable corpus input: empty vocabulary, misaligned labels, degenerate rows."""


@dataclass
class Vocabulary:
    """Ordered list of unique tokens; a token's position is its word id."""

    tokens: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = dict(zip(self.tokens, range(len(self.tokens))))
        if len(self.index) != len(self.tokens):   # a repeated token keeps one key
            raise ValueError("vocabulary tokens must be unique")
        if len(self.tokens) < 2:
            raise ValueError("vocabulary needs at least 2 tokens")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        return cls(Path(path).read_text(encoding="utf-8").splitlines())


class RowsError(ValueError):
    """A rows.bin file that save_rows did not write: damaged, or its header
    or arrays break the layout."""


# Documents per block: tfidf and infer weigh this many documents at a time,
# so no dense matrix of the vocabulary's width has more rows.
BLOCK_ROWS = 256


@dataclass
class CsrRows:
    """Rows of an (n_rows, num_cols) float64 matrix in compressed sparse row
    form, the layout of scikit-learn's CSR matrices: row i holds the values
    ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in increasing column order. Entries
    not stored are zero."""

    indptr: np.ndarray    # int64, n_rows + 1 offsets from 0 to nnz
    indices: np.ndarray   # int32 column of each stored entry
    data: np.ndarray      # float64 value of each stored entry
    num_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.num_cols

    def slice(self, start: int, stop: int) -> "CsrRows":
        """Rows start to stop (at most the last row), sharing this matrix's
        columns and values."""
        indptr = self.indptr[start:stop + 1]
        return CsrRows(indptr - indptr[0], self.indices[indptr[0]:indptr[-1]],
                       self.data[indptr[0]:indptr[-1]], self.num_cols)

    def take(self, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The given rows as a dense (len(rows), num_cols) matrix, written
        over out when given, else new."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        # position in indices/data of every stored entry of the chosen rows
        pos = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                   lengths)
        if out is None:
            out = np.zeros((len(rows), self.num_cols))
        else:
            out.fill(0.0)
        out[np.repeat(np.arange(len(rows)), lengths), self.indices[pos]] = self.data[pos]
        return out

    def toarray(self) -> np.ndarray:
        return self.take(np.arange(self.shape[0]))


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Row offsets (indptr) of rows with the given numbers of entries."""
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


@dataclass
class TfidfMatrix:
    """Row-normalized TF-IDF rows for the retained documents, as CSR rows.

    ``kept_docs`` / ``dropped_docs`` index into the original corpus; rows
    whose smoothed weight summed to zero are dropped. ``doc_freq`` and
    ``n_docs`` are the statistics needed to transform unseen documents
    with the same idf.
    """

    csr: CsrRows
    kept_docs: list[int]
    dropped_docs: list[int]
    doc_freq: np.ndarray
    n_docs: int

    @property
    def rows(self) -> np.ndarray:
        """The rows as a dense matrix, built on each read."""
        return self.csr.toarray()


@dataclass
class Documents:
    """A block of a document file as word ids: document i is the next
    ``lengths[i]`` ids. An id indexes ``tokens``; -1 marks a token outside
    them. ``labels``, when the file has labels, are the documents'."""

    tokens: list[str]
    ids: np.ndarray        # int32
    lengths: np.ndarray    # int64
    labels: list[int] | None

    def split(self, n: int) -> tuple["Documents", "Documents"]:
        """The first n documents and the rest, as views of this block."""
        cut = int(self.lengths[:n].sum())
        labels = (None, None) if self.labels is None else (self.labels[:n], self.labels[n:])
        return (Documents(self.tokens, self.ids[:cut], self.lengths[:n], labels[0]),
                Documents(self.tokens, self.ids[cut:], self.lengths[n:], labels[1]))

    @classmethod
    def join(cls, parts: list["Documents"]) -> "Documents":
        """The documents of the parts, in order, as one block; the parts come
        from one file, so the last one's tokens cover every id."""
        labels = None if parts[0].labels is None else [lab for p in parts for lab in p.labels]
        return cls(parts[-1].tokens, np.concatenate([p.ids for p in parts]),
                   np.concatenate([p.lengths for p in parts]), labels)


READ_BYTES = 1 << 16   # a span is read in blocks of about this many bytes
# A regular file of at least this many bytes is read in byte spans, each
# about half this long or more. A reader starts in about 2 ms, yet at 256
# and 128 KiB eval-coherence on a 500-document reference ran 9.2% and 15.3%
# slower (40 alternating runs on 2 vCPUs, the same output).
SPAN_BYTES = 2 << 20
# No span is longer but for the end of its last line: it bounds what a
# span's reader buffers, whatever the size of the file.
MAX_SPAN_BYTES = 4 * SPAN_BYTES
# The most processes that read one file, the command included: two, on two
# CPUs, is the only count measured to gain.
READERS = 2


class FirstSeen(dict):
    """token -> id, each new token taking the next id; ``tokens`` lists
    them by id."""

    def __init__(self):
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, token: str) -> int:
        self[token] = wid = len(self.tokens)
        self.tokens.append(token)
        return wid


def _token_ids(table: dict, tokens: Iterable[str], count: int) -> np.ndarray:
    """The int32 id of each of the count tokens: the one place a token
    becomes an id. A FirstSeen table gives a new token the next id; any
    other table is a vocabulary's index, which gives -1 to a token outside
    it and stays as it is. The ids are taken one at a time: a list of a
    block's ids would leave the heap fragmented."""
    ids = (map(table.__getitem__, tokens) if isinstance(table, FirstSeen)
           else map(table.get, tokens, repeat(-1)))
    return np.fromiter(ids, dtype=np.int32, count=count)


def _readers() -> int:
    """How many processes read a large file: READERS, or fewer CPUs; one
    where processes cannot be forked."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(READERS, cpus)


@functools.cache
def blas_threads() -> tuple | None:
    """The get and set functions of the thread count of the OpenBLAS numpy
    is built with, or None, said once on stderr, where its BLAS is not
    OpenBLAS or they are not found. Their names start with the library's
    name in numpy's build configuration (scipy-openblas's with
    "scipy_openblas_") and end in "64_" in a build with 64-bit integers;
    they are looked up in the libraries that numpy's core module has
    loaded."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        core = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, KeyError, OSError, TypeError):
        name = ""   # not OpenBLAS: nothing is looked up
    name = name.replace("-", "_")
    for suffix in ("64_", "") if "openblas" in name else ():
        get, set_threads = (getattr(core, f"{name}_{op}_num_threads{suffix}", None)
                            for op in ("get", "set"))
        if get and set_threads:
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads
    print("warning: no BLAS thread setter found; BLAS keeps its thread count",
          file=sys.stderr)
    return None


def one_blas_thread():
    """Set BLAS to one thread (blas_threads) and return the function that
    restores the count it had. Training gives the same bytes whatever the
    count it was started with, and two processes that each ran a thread per
    CPU made infer slower on two CPUs. Where no setter is found, nothing is
    set and the function does nothing."""
    threads = blas_threads()
    if threads is None:
        return lambda: None
    get, set_threads = threads
    before = get()
    set_threads(1)
    return lambda: set_threads(before)


def _spans(fd: int, readers: int) -> list[tuple[int, int | None]]:
    """The (start, end) byte offsets of the spans the open file fd is read
    in by readers processes: for a regular file of at least SPAN_BYTES,
    readers spans, fewer while they would be under SPAN_BYTES, or a
    multiple of readers that keeps each within MAX_SPAN_BYTES; each but the
    first starts just after a "\n" byte. Else [(0, None)], the whole file
    read in order."""
    st = os.fstat(fd)
    if readers < 2 or not stat.S_ISREG(st.st_mode):
        return [(0, None)]
    count = (min(readers, st.st_size // SPAN_BYTES + 1)
             * -(-st.st_size // (readers * MAX_SPAN_BYTES)))
    starts = [0]
    for k in range(1, count):
        pos = max(st.st_size * k // count, starts[-1])
        while chunk := os.pread(fd, 1 << 16, pos):
            cut = chunk.find(b"\n")
            if cut >= 0:
                pos += cut + 1
                break
            pos += len(chunk)
        if pos >= st.st_size:   # no line starts after the cut
            break
        starts.append(pos)
    if len(starts) == 1:
        return [(0, None)]
    return list(zip(starts, starts[1:] + [st.st_size]))


def _read_blocks(fd: int, start: int, end: int | None,
                 table: dict) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks of bytes start to end of the open file fd, each read with
    os.pread at its offset, so that processes sharing fd share no position;
    with end None, of the bytes from fd's position on, read in order (from a
    pipe too). A block is about READ_BYTES bytes of whole lines, decoded as
    strict UTF-8, lowercased and cut at every line end of str.splitlines:
    the number of whitespace-separated tokens on each line (int64) and each
    token's id in table (int32)."""
    rest, size = b"", READ_BYTES
    while chunk := (os.read(fd, size) if end is None
                    else os.pread(fd, min(size, end - start), start)):
        start += len(chunk)
        chunk = rest + chunk
        # a block ends after a "\n", or after a "\r" that is not the chunk's
        # last byte, which may be the first of a "\r\n"
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
        # a line longer than the chunk doubles the next read
        rest, size = chunk[cut:], READ_BYTES if cut else 2 * len(chunk)
        if cut:
            text = chunk[:cut].decode("utf-8")
            del chunk   # not held while the block is tokenized
            yield _tokenize(text, table)
    if rest:
        yield _tokenize(rest.decode("utf-8"), table)


def _tokenize(text: str, table: dict) -> tuple[np.ndarray, np.ndarray]:
    """The token counts and ids of text's lines (_read_blocks); its strings
    are freed on return, before the block is used."""
    words = [line.split() for line in text.lower().splitlines()]
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    return lengths, _token_ids(table, chain.from_iterable(words), int(lengths.sum()))


class DocumentFile:
    """A file of one whitespace-tokenized document per line, open to be read
    by load_documents a block of whole lines at a time, or a span at a time
    by map_spans.

    Lines are those of ``str.splitlines``, lowercased. Every block's ids come
    from one table: vocab's, or, with no vocabulary, the file's distinct
    tokens in order of first appearance (``tokens``, which grows as blocks
    are read). Blank lines are dropped together with their labels, unless
    keep_blank, when each is a document of no tokens. The label file, read
    whole on opening, must have exactly one integer per document line.

    A large file is read in byte spans (_spans) by _readers() processes in
    turn, each span through a stage, a function of its blocks: handing them
    on (load_documents), or what map_spans is given. This process runs the
    stage on span 0, a reader forked from it runs it on each of the next
    _readers() - 1 spans and sends the stage's items back through a pipe,
    then this process runs the next span, and so on. A reader's items are
    handed on once this process reaches its span, and as each reader is
    reaped the reader of the span _readers() further on starts. So at most
    _readers() - 1 readers run at once, each buffering its span's items, and
    the output is that of one process reading the whole file. A reader
    inherits the vocabulary and gives its ids; with none, it numbers its
    span's tokens itself and this process maps them through its own table.
    BLAS runs on one thread while readers run, and close() kills and reaps
    every running reader. Either way of reading checks the label count once
    the last span's items are taken (_items).
    """

    def __init__(self, path: str | Path, label_path: str | Path | None = None,
                 vocab: Vocabulary | None = None, keep_blank: bool = False):
        self.labels: list[int] | None = None
        if label_path is not None:
            raw = Path(label_path).read_text(encoding="utf-8").splitlines()
            try:
                self.labels = [int(s.strip()) for s in raw]
            except ValueError as exc:
                raise CorpusError(f"label file {label_path} contains a non-integer line") from exc
        self.path = path
        self.keep_blank = keep_blank
        if vocab is None:
            self.table: dict = FirstSeen()
            self.tokens = self.table.tokens
        else:
            self.table = vocab.index
            self.tokens = vocab.tokens
        self.lines = 0   # lines read so far
        self.running: deque = deque()   # (pid, pipe, start, end) of each running reader
        self.restore_blas = lambda: None   # BLAS's thread count, once readers run
        self.file = open(path, "rb", buffering=0)   # holds the descriptor every span reads
        try:
            self.readers = _readers()
            self.spans = _spans(self.file.fileno(), self.readers)
        except BaseException:
            self.close()
            raise
        self.blocks = self._items(lambda blocks: blocks)

    def close(self) -> None:
        while self.running:
            os.kill(self.running[0][0], signal.SIGKILL)
            self._reap()
        self.file.close()
        self.restore_blas()

    def __enter__(self) -> "DocumentFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map_spans(self, stage) -> Iterator[tuple]:
        """stage(documents) of each span in turn, with the labels of those
        documents (None without labels). documents iterates the span's
        Documents, a block of lines at a time, with no labels; its ids are
        the vocabulary's, which the file must have been opened with. A
        stage's result must pickle.
        """
        def span(blocks):
            lengths = [np.zeros(0, dtype=np.int64)]

            def documents():
                for block in blocks:
                    lengths.append(block[0])
                    yield _documents(self, *block, None)
            result = stage(documents())
            return [(result, np.concatenate(lengths))]

        for result, lengths in self._items(span):
            yield result, self._labels_of(lengths)

    def _labels_of(self, lengths: np.ndarray) -> list[int] | None:
        """The labels of the next lines, with lengths tokens each: those of
        the blank ones dropped unless keep_blank, None without labels. The
        lines are counted; labels past the last are not there."""
        start = self.lines
        self.lines += lengths.size
        if self.labels is None:
            return None
        labels = self.labels[start:self.lines]
        return labels if self.keep_blank else [lab for lab, n in zip(labels, lengths) if n]

    def _items(self, stage):
        """The items of stage(blocks) for each span in turn, where blocks
        iterates the span's blocks (_read_blocks): this process's spans'
        items as the stage makes them, a reader's as they come through its
        pipe.

        Raises CorpusError once the last span's items are taken, when the
        file's line count, which the taker counts (_labels_of), differs
        from its label count.
        """
        if len(self.spans) > 1:
            self.restore_blas = one_blas_thread()
        for k in range(1, min(self.readers, len(self.spans))):
            self._start_reader(k, stage)
        for k, span in enumerate(self.spans):
            if k % self.readers == 0:
                yield from stage(self._blocks(span, self.table))
            else:
                yield from self._reader_items()
                if k + self.readers < len(self.spans):
                    self._start_reader(k + self.readers, stage)
        if self.labels is not None and len(self.labels) != self.lines:
            raise CorpusError(f"label/document count mismatch: {len(self.labels)} labels "
                              f"for {self.lines} lines")

    def _blocks(self, span: tuple[int, int | None], table: dict):
        """The blocks of a span, their ids taken from table."""
        try:
            yield from _read_blocks(self.file.fileno(), *span, table)
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{self.path} is not UTF-8 text: {exc.reason} "
                              f"(byte 0x{exc.object[exc.start]:02x})") from exc

    def _start_reader(self, k: int, stage) -> None:
        """Fork the reader of span k, which runs _serve and leaves by
        os._exit, so that it runs none of this process's cleanup and flushes
        none of its buffers; an exception, an interrupt among them, ends it
        there with status 1, before it can unwind into this process's frames
        or print a traceback."""
        start, end = self.spans[k]
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read)
                self._serve(write, (start, end), stage)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.running.append((pid, open(read, "rb"), start, end))

    def _serve(self, fd: int, span: tuple[int, int], stage) -> None:
        """In a reader: run stage on the span's blocks and keep every item
        until the span is read, so that the reader never stalls on a pipe
        that the command reads later; then pickle to fd, one after another:
        the reader's own tokens (None with a vocabulary), the number of items
        and the exception that stopped the stage (None when it read the
        span), then the items. Nothing is written to stdout or stderr."""
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.dup2(devnull, 2)
        table = FirstSeen() if isinstance(self.table, FirstSeen) else self.table
        items, stopped = [], None
        try:
            for item in stage(self._blocks(span, table)):
                items.append(item)
        except Exception as exc:
            stopped = exc
        tokens = table.tokens if table is not self.table else None
        with open(fd, "wb") as out:
            for message in [(tokens, len(items), stopped)] + items:
                pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)

    def _reader_items(self):
        """The items of the oldest running reader, as it pickled them, its
        tokens mapped through this process's table; the reader is reaped at
        the end, and the exception that stopped its stage raised."""
        _, pipe, start, end = self.running[0]

        def load():
            try:
                return pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                # the pickles end early: the reader left before it was done
                status = self._reap()
                how = (f"was killed by signal {-status}" if status < 0
                       else f"exited with status {status}")
                raise CorpusError(f"{self.path}: the reader of bytes {start} to {end} {how} "
                                  "before it was done") from None

        tokens, count, stopped = load()
        # a reader numbers its own tokens only without a vocabulary, when its
        # stage hands on its blocks
        lookup = None if tokens is None else _token_ids(self.table, tokens, len(tokens))
        for _ in range(count):
            item = load()
            yield item if lookup is None else (item[0], lookup[item[1]])
        self._reap()
        if stopped is not None:
            raise stopped

    def _reap(self) -> int:
        """Wait for the oldest running reader to exit; its exit code, or
        minus the signal that killed it."""
        pid, pipe, _, _ = self.running[0]
        pipe.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self.running.popleft()
        return status


def _documents(source: DocumentFile, lengths: np.ndarray, ids: np.ndarray,
               labels: list[int] | None) -> Documents:
    """A block of source's lines as Documents: its blank lines dropped
    unless source keeps them (labels are already those of the kept lines)."""
    if not source.keep_blank:
        lengths = lengths[lengths > 0]
    return Documents(source.tokens, ids, lengths, labels)


def load_documents(source: DocumentFile) -> Documents | None:
    """The next block of source's documents, None at the end of the file,
    where a label count that differs from the line count raises CorpusError
    (DocumentFile._items)."""
    block = next(source.blocks, None)
    if block is None:
        return None
    lengths, ids = block
    return _documents(source, lengths, ids, source._labels_of(lengths))


def group_documents(blocks: Iterable[Documents]) -> Iterator[Documents]:
    """The documents of the blocks, in order, BLOCK_ROWS at a time (the last
    group may hold fewer)."""
    parts, size = [], 0
    for docs in blocks:
        while docs.lengths.size:
            head, docs = docs.split(BLOCK_ROWS - size)
            parts.append(head)
            size += head.lengths.size
            if size == BLOCK_ROWS:
                yield Documents.join(parts)
                parts, size = [], 0
    if size:
        yield Documents.join(parts)


def build_vocabulary(blocks: list[Documents], min_count: int = 1,
                     max_vocab: int | None = None) -> Vocabulary:
    """Tokens with corpus frequency >= min_count, most frequent first, from
    the blocks of a file read without a vocabulary.

    Ties are broken by ascending token so the ordering is deterministic;
    the list is truncated to the max_vocab most frequent entries.
    """
    if max_vocab is not None and max_vocab < 1:
        raise CorpusError(f"max_vocab must be >= 1, not {max_vocab}")
    if not any(docs.lengths.size for docs in blocks):
        raise CorpusError("no documents given")
    tokens = blocks[-1].tokens   # every block's, read to the end
    totals = np.zeros(len(tokens), dtype=np.int64)
    for docs in blocks:
        totals += np.bincount(docs.ids, minlength=len(tokens))
    counts = totals.tolist()
    survivors = [i for i, c in enumerate(counts) if c >= min_count]
    if not survivors:
        raise CorpusError("no token survives the frequency filters (empty vocabulary)")
    survivors.sort(key=lambda i: (-counts[i], tokens[i]))
    return Vocabulary([tokens[i] for i in survivors[:max_vocab]])


def count_documents(blocks: Iterable[Documents], vocab: Vocabulary) -> list[CsrRows]:
    """The count rows of each block's documents over vocab's words, one
    CsrRows per block, in order; tokens outside the vocabulary are dropped."""
    rows, lookup = [], None
    for docs in blocks:
        ids = docs.ids
        if docs.tokens is not vocab.tokens:
            if lookup is None or lookup.size != len(docs.tokens) + 1:
                # vocab's id of each of the documents' tokens; the last entry keeps -1 at -1
                lookup = np.append(_token_ids(vocab.index, docs.tokens, len(docs.tokens)),
                                   np.int32(-1))
            ids = lookup[ids]
        n_docs = docs.lengths.size
        # the flat index doc * V + id of each in-vocabulary token's cell
        cells = (np.repeat(np.arange(n_docs) * vocab.size, docs.lengths) + ids)[ids >= 0]
        cells, counts = np.unique(cells, return_counts=True)
        doc, cols = np.divmod(cells, vocab.size)
        rows.append(CsrRows(_offsets(np.bincount(doc, minlength=n_docs)),
                            cols.astype(np.int32), counts.astype(np.float64), vocab.size))
    return rows


def idf_weights(doc_freq: np.ndarray, n_docs: int) -> np.ndarray:
    """Smoothed idf log(N / (1 + df)), clamped at zero."""
    idf = np.log(n_docs / (1.0 + np.asarray(doc_freq, dtype=np.float64)))
    return np.maximum(idf, 0.0)


def _weigh(counts: CsrRows, idf: np.ndarray, dense: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The smoothed TF-IDF of count rows, on their stored entries: the row of
    each entry, its value count / row total * idf, and each row's total weight.

    The values take the dense formula's operations in its order, and the row
    totals, sums of integer counts, are exact. The weights are summed over
    dense rows, since summing the values alone would group numpy's pairwise
    sums differently: dense, a contiguous zero (rows, num_cols) matrix, holds
    the values for the sum and is left zero.
    """
    row = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
    totals = np.bincount(row, weights=counts.data, minlength=counts.shape[0])
    values = counts.data / totals[row]
    values *= idf[counts.indices]
    cells = row * counts.num_cols + counts.indices
    flat = dense.reshape(-1)   # a view: dense is contiguous
    flat[cells] = values
    weight = dense.sum(axis=1)
    flat[cells] = 0.0
    return row, values, weight


def tfidf(counts: list[CsrRows]) -> TfidfMatrix:
    """Normalized TF-IDF rows of a corpus given as blocks of count rows over
    one vocabulary (count_documents' output), in document order; documents
    with zero total weight are dropped, and so are zero entries (words in
    every document, whose idf is zero).

    The rows are weighed BLOCK_ROWS documents at a time into arrays sized
    for every stored count, so neither a dense matrix of the whole corpus
    nor one array of every count row is built. idf is computed on this
    corpus; reuse it on held-out documents via tfidf_transform with the
    returned doc_freq / n_docs.
    """
    n_docs = sum(block.shape[0] for block in counts)
    if n_docs < 2:
        raise CorpusError("tfidf needs at least 2 documents")
    # a negative or NaN count is a nonzero, so it is stored and seen here
    if not all(((block.data > 0) & (block.data < np.inf)).all() for block in counts):
        raise CorpusError("word counts must be finite and positive")
    num_words = counts[0].num_cols
    # every stored count is positive: one entry per (document, word) pair
    doc_freq = np.zeros(num_words, dtype=np.int64)
    for block in counts:
        doc_freq += np.bincount(block.indices, minlength=num_words)
    idf = idf_weights(doc_freq, n_docs)
    dense = np.zeros((min(BLOCK_ROWS, n_docs), num_words))
    weight = np.empty(n_docs)
    lengths = np.empty(n_docs, dtype=np.int64)   # entries kept in each row
    total = sum(int(block.indptr[-1]) for block in counts)
    indices = np.empty(total, dtype=np.int32)
    data = np.empty(total)
    nnz = done = 0
    for block in counts:
        for start in range(0, block.shape[0], BLOCK_ROWS):
            part = block.slice(start, start + BLOCK_ROWS)
            n_rows = part.shape[0]
            row, values, part_weight = _weigh(part, idf, dense[:n_rows])
            # a dropped row's values are all zero: dividing them by 1 keeps them zero
            values /= np.where(part_weight > 0, part_weight, 1.0)[row]
            stored = np.flatnonzero(values != 0)
            indices[nnz:nnz + stored.size] = part.indices[stored]
            data[nnz:nnz + stored.size] = values[stored]
            nnz += stored.size
            # the entries kept in each row: stored lists positions in row order
            lengths[done:done + n_rows] = np.diff(np.searchsorted(stored, part.indptr))
            weight[done:done + n_rows] = part_weight
            done += n_rows
    kept = np.flatnonzero(weight > 0)
    if kept.size == 0:
        raise CorpusError("every document lost all TF-IDF weight (all rows dropped)")
    csr = CsrRows(_offsets(lengths[kept]), indices[:nnz], data[:nnz], num_words)
    return TfidfMatrix(csr=csr, kept_docs=kept.tolist(),
                       dropped_docs=np.flatnonzero(weight <= 0).tolist(),
                       doc_freq=doc_freq, n_docs=n_docs)


def tfidf_transform(counts: CsrRows, doc_freq: np.ndarray, n_docs: int,
                    out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Dense TF-IDF rows of unseen documents' count rows, using training-split
    idf statistics, written over out when given: a contiguous zero array of
    counts' shape, of which only the stored entries are written.

    Returns (rows, valid): documents whose weight sums to zero keep an
    all-zero row and are marked invalid rather than dropped, so callers
    can report them positionally.
    """
    rows = np.zeros(counts.shape) if out is None else out   # also the kernel's row-sum buffer
    row, values, weight = _weigh(counts, idf_weights(doc_freq, n_docs), rows)
    valid = weight > 0
    # an invalid row's values are all zero: dividing them by 1 keeps them zero
    rows[row, counts.indices] = values / np.where(valid, weight, 1.0)[row]
    return rows, valid


# rows.bin: ROWS_MAGIC and the header's counts n_rows, nnz, num_words and
# labelled (0 or 1) as little-endian int64, then the arrays indptr
# (n_rows + 1), data (nnz, float64), doc_freq (num_words), kept_docs
# (n_rows) and, when labelled, labels (n_rows), all but data little-endian
# int64, then indices (nnz, little-endian int32), then the zlib.crc32 of
# every byte before it as a little-endian uint32. The 40-byte header and the
# 8-byte arrays ahead of the 4-byte indices keep every array aligned.
ROWS_MAGIC = b"TCROWS02"
# the layout before it, with the same header and trailer and int64 indices
# between indptr and data
_OLD_ROWS_MAGIC = b"TCROWS01"
_ROWS_HEADER = struct.Struct("<8s4q")


def save_rows(path: str | Path, mat: TfidfMatrix, labels: np.ndarray | None) -> None:
    """Write mat's CSR rows, doc_freq, kept row ids and, when given, the kept
    rows' labels to a rows.bin file, atomically; no array of the layout's
    type is copied."""
    csr = mat.csr
    arrays = [np.asarray(csr.indptr, dtype="<i8"), np.asarray(csr.data, dtype="<f8"),
              np.asarray(mat.doc_freq, dtype="<i8"), np.asarray(mat.kept_docs, dtype="<i8")]
    if labels is not None:
        arrays.append(np.asarray(labels, dtype="<i8"))
    arrays.append(np.asarray(csr.indices, dtype="<i4"))
    header = _ROWS_HEADER.pack(ROWS_MAGIC, csr.indptr.size - 1, csr.indices.size,
                               csr.num_cols, labels is not None)
    crc = zlib.crc32(header)
    for array in arrays:
        crc = zlib.crc32(array, crc)
    write_atomic(path, header, *arrays, crc.to_bytes(4, "little"))


def load_rows(path: str | Path, num_words: int, n_docs: int,
              num_classes: int) -> tuple[TfidfMatrix, np.ndarray | None]:
    """The TF-IDF rows and the kept rows' labels (None when the file has
    none) of a rows.bin file of a corpus of n_docs documents over num_words
    words. The arrays are read-only views of the file's bytes, read once.

    Raises RowsError when the file is not one save_rows wrote: its magic or
    CRC is wrong, its header disagrees with its length or the vocabulary,
    or its arrays break the layout. An undamaged file of an older ingest's
    layout raises CorpusError, and an unreadable file OSError.
    """
    blob = Path(path).read_bytes()

    def check(ok, what: str) -> None:
        if not ok:
            raise RowsError(f"{path}: {what}")

    check(len(blob) >= _ROWS_HEADER.size + 4 and blob[:8] in (ROWS_MAGIC, _OLD_ROWS_MAGIC),
          "not a rows file written by 'ingest'")
    check(zlib.crc32(memoryview(blob)[:-4]) == int.from_bytes(blob[-4:], "little"),
          "checksum mismatch: the file is damaged")
    if blob.startswith(_OLD_ROWS_MAGIC):
        raise CorpusError(f"{path} was written by an older ingest: re-run 'ingest'")
    _, n_rows, nnz, words, labelled = _ROWS_HEADER.unpack_from(blob)
    check(labelled in (0, 1), f"labelled must be 0 or 1, not {labelled}")
    layout = ([("<i8", n_rows + 1), ("<f8", nnz), ("<i8", words), ("<i8", n_rows)]
              + [("<i8", n_rows)] * labelled + [("<i4", nnz)])
    size = _ROWS_HEADER.size + sum(np.dtype(dtype).itemsize * n for dtype, n in layout) + 4
    check(min(n_rows, nnz) >= 0 and size == len(blob),
          f"the header's {n_rows} rows, {nnz} entries and {words} words disagree with "
          f"the file's {len(blob)} bytes")
    check(words == num_words, f"{words} words, not the vocabulary's {num_words}")
    arrays, at = [], _ROWS_HEADER.size
    for dtype, n in layout:
        arrays.append(np.frombuffer(blob, dtype, n, at))
        at += arrays[-1].nbytes
    indptr, data, doc_freq, kept, *labels, indices = arrays
    labels = labels[0] if labelled else None
    check(indptr[0] == 0 and indptr[-1] == nnz,
          "indptr must run from 0 to the number of stored entries")
    check((np.diff(indptr) > 0).all(), "indptr must be strictly increasing (no empty row)")
    # every entry is checked with no temporary as long as the file: the
    # ranges by their extremes (a NaN fails both), the order a block at a time
    check(indices.size == 0 or (indices.min() >= 0 and indices.max() < num_words),
          f"a column index lies outside [0, {num_words})")
    for start in range(0, n_rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n_rows)
        first = indptr[start]
        rising = np.diff(indices[first:indptr[stop]]) > 0
        rising[indptr[start + 1:stop] - first - 1] = True   # a row's first entry
        check(rising.all(), "columns must increase within each row")
    check(data.size == 0 or (data.min() > 0 and data.max() < np.inf),
          "data must be finite and positive")
    check(((doc_freq >= 0) & (doc_freq <= n_docs)).all(),
          f"doc_freq must hold counts in [0, {n_docs}]")
    check(kept.size == 0 or (kept[0] >= 0 and kept[-1] < n_docs and (np.diff(kept) > 0).all()),
          f"kept row ids must increase within [0, {n_docs})")
    if labels is not None:
        check(((labels >= 0) & (labels < num_classes)).all(),
              f"a label lies outside [0, {num_classes})")
    dropped = np.ones(n_docs, dtype=bool)
    dropped[kept] = False
    mat = TfidfMatrix(csr=CsrRows(indptr, indices, data, num_words), kept_docs=kept.tolist(),
                      dropped_docs=np.flatnonzero(dropped).tolist(), doc_freq=doc_freq,
                      n_docs=n_docs)
    return mat, labels
