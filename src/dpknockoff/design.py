"""Regression data records: ingestion, validation and norm bounds.

The fixed-X filter and both privacy mechanisms read a dataset (X, y) only
through p x p and length-p sums over its rows: the raw Gram X^T X, X^T y,
the largest squared row norm, and the products X^T W, W^T y and W^T W with
the probe W that spans the knockoffs' complement.  Normalization is the
diagonal scaling X' = X D with D = diag(1/||x_j||), so everything the filter
reads of X' follows from those sums: S' = D (X^T X) D, X'^T v = D X^T v, and
||x_j|| = sqrt((X^T X)_jj).  The filter never forms X'.  This module holds
that record, its validation, the norm bounds, the probe W with its cache,
and the CSV ingestion path, which streams a regular design file without
holding it.  Arrays and files are summed by the same :class:`_Sums`, in the
same row blocks, and validated by the same builder, and
:meth:`Dataset.probe_products` is the one source of products with W - X m.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import os
import signal
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolation,
    DimensionMismatch,
    InvalidDesign,
    ParseError,
)

ZERO_COLUMN_TOL = 1e-12


# Deterministic probe used to span the orthogonal complement; not a secret,
# just a fixed arbitrary constant so the construction is reproducible.
_PROBE_ENTROPY = 0x5D2B1


def _probe_generator() -> np.random.Generator:
    """The generator of the probe W: its first n x p standard normals in row
    order, so W drawn a block of rows at a time has the bits of W drawn whole."""
    return np.random.default_rng(np.random.SeedSequence(_PROBE_ENTROPY, spawn_key=(0,)))


# Each cached probe holds an n x p array, so the bound caps the memory the cache pins.
@functools.lru_cache(maxsize=4)
def _default_probe(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe W of shape (n, p) and W^T W summed in blocks, cached and read-only
    as every caller shares them.  Concurrent first calls may each draw the same bits."""
    w = _probe_generator().standard_normal((n, p))
    wtw = _block_sum(w, w)
    w.setflags(write=False)
    wtw.setflags(write=False)
    return w, wtw


@dataclass(frozen=True)
class Dataset:
    """The p x p record of one regression dataset: an n x p design X and a
    length-n response y, as the filter and the calibration read them.

    The record holds the raw Gram X^T X with the column norms
    sqrt(diag(X^T X)) and their reciprocals ``normalizer_d`` (the diagonal of
    D in X' = X D), X^T y, the largest squared row norm of X, and y.  It is
    validated at construction and immutable afterwards; every array is
    read-only.  Use :meth:`from_arrays` or :func:`load_dataset` instead of
    the bare constructor.  Both sum the design with :class:`_Sums`, under
    its shape and block rules, and validate the sums in :meth:`_summed`.

    The products with the probe W are read through :meth:`probe_products`
    alone.  An in-memory record keeps its design as ``x`` and forms them from
    it when asked, not at build time: :meth:`from_arrays` copies the arrays
    it is given, so later writes to them do not reach it, and
    :func:`~dpknockoff.simulate.generate_trial` hands over the arrays it just
    drew.  A record :func:`load_dataset` builds holds in ``probe_sums``
    (X^T W, W^T y, W^T W), summed in the same pass; those with W - X m read
    its ``design_file`` (path, header lines) again, or a pipe's rows, read
    only once and kept as ``x``.
    """

    n: int
    p: int
    gram: np.ndarray
    col_norms: np.ndarray
    normalizer_d: np.ndarray
    xty: np.ndarray
    row_norm_sq_max: float
    y: np.ndarray
    x: np.ndarray | None = None
    design_file: tuple | None = None
    probe_sums: tuple | None = None

    def __post_init__(self):
        arrays = (self.gram, self.col_norms, self.normalizer_d, self.xty, self.y, self.x)
        for array in (*arrays, *(self.probe_sums or ())):
            if array is not None:
                array.setflags(write=False)

    @classmethod
    def from_arrays(cls, x, y) -> "Dataset":
        return cls._owned(np.array(x, float, order="C", ndmin=2), np.array(y, float).ravel())

    @classmethod
    def _owned(cls, x: np.ndarray, y: np.ndarray) -> "Dataset":
        """Validate a 2-D float x and 1-D float y, take ownership of both and
        sum x in a loaded design's blocks (:func:`_folded`), on the caller's BLAS threads."""
        return cls._summed(_folded(x, y, None), x=x)

    @classmethod
    def _summed(cls, sums: "_Sums", **source) -> "Dataset":
        """The record of a design's sums and response, with the design's
        ``x`` or ``design_file`` as ``source``.

        The checks run in a fixed order, so a record with several defects
        names the first.  ``sums.gram`` is None where :class:`_Sums` refused
        the shape; a shape check below then refuses the record.
        """
        n, p, gram, y = sums.n, sums.p, sums.gram, sums.y
        gram_finite = gram is not None and bool(np.all(np.isfinite(gram)))
        if not (gram_finite or sums.x_finite) or not np.all(np.isfinite(y)):
            raise InvalidDesign("design or response contains non-finite entries")
        if y.shape[0] != n:
            raise DimensionMismatch(f"response has {y.shape[0]} entries but design has {n} rows")
        if n < 2 * p:
            raise InvalidDesign(
                f"n={n} < 2p={2 * p}: a knockoff copy needs at least twice as "
                "many samples as features"
            )
        if not p:
            raise InvalidDesign(f"the design has no columns ({n} x 0)")
        if not gram_finite:
            raise InvalidDesign("X^T X overflows double precision; rescale the design columns")
        col_norms = np.sqrt(np.diag(gram))
        if np.any(col_norms < ZERO_COLUMN_TOL):
            bad = int(np.argmin(col_norms))
            raise InvalidDesign(
                f"column {bad} has (near-)zero norm; the Gram matrix would be singular")
        return cls(
            n=n, p=p, gram=gram, col_norms=col_norms, normalizer_d=1.0 / col_norms,
            xty=sums.xty, row_norm_sq_max=sums.row_norm_sq_max, y=y,
            probe_sums=sums.probe_products, **source,
        )

    def probe_products(self, m: np.ndarray | None = None) -> tuple:
        """(X^T Z, Z^T y, Z^T Z) for the probe Z = W - X m, or Z = W without ``m``.

        W's are stored, or formed from held rows with the cached probe in
        :class:`_Sums`' blocks, to a loaded design's bits.  :class:`_Sums`
        forms Z's from held rows, or from one more read of the design file,
        whose X^T X, X^T y and largest squared row norm must be the record's.
        """
        if m is None and self.probe_sums is not None:
            return self.probe_sums
        if m is None and self.x is not None:
            w, wtw = _default_probe(self.n, self.p)
            with np.errstate(over="ignore", invalid="ignore"):  # W^T y is refused by its reader
                return _block_sum(self.x, w), _block_sum(w, self.y), wtw
        if self.x is not None:
            return _folded(self.x, self.y, m).probe_products
        path, skip = self.design_file
        sums = _design_sums(path, skip, self.y, 0 if m is None else m)
        if (sums.n, sums.p) != (self.n, self.p) or (
            sums.row_norm_sq_max, sums.gram.tobytes(), sums.xty.tobytes()
        ) != (self.row_norm_sq_max, self.gram.tobytes(), self.xty.tobytes()):
            raise ParseError(f"design file {path} changed while it was read")
        return sums.probe_products


# Rows per block of a design's sums (fewer for a shorter y); this process
# holds the block buffer and one block of W while it folds a stream.
_BLOCK_ROWS = 1024


def _block_sum(a: np.ndarray, b: np.ndarray):
    """a^T b summed over blocks of ``_BLOCK_ROWS`` rows from row 0, in :class:`_Sums`' order."""
    starts = range(0, len(a), _BLOCK_ROWS)
    return sum(a[i : i + _BLOCK_ROWS].T @ b[i : i + _BLOCK_ROWS] for i in starts)


# Bytes per chunk of a streamed design file; a forked worker holds one chunk's text and rows.
_CHUNK_BYTES = 2 << 20


class _Sums:
    """Running sums over the rows of a design: X^T X, X^T y, the largest
    squared row norm and, unless ``m`` is None, X^T Z, Z^T y and Z^T Z for
    Z = W - X m, with the rows of W drawn alongside (m = 0 sums W itself).

    Every design is summed in blocks of ``block_rows`` rows counted from the
    first row, so the sums depend only on the rows, not on the chunks they
    arrive in or on whether they are held in memory: a stream's through the
    block buffer, rows in memory as views (:func:`_folded`).  A block is
    ``_BLOCK_ROWS`` rows, or len(y) where fewer but not 0: a valid record
    has len(y) rows, so its blocks are the same.  A non-finite x_ij makes
    (X^T X)_jj non-finite, so a block is scanned for non-finite entries only
    where its Gram is not finite.

    The shape rule: the sums are formed only while y is present and has at
    least max(rows so far, 2p) entries, y's length standing in for the n a
    stream learns at its last row.  Rows only accrue, so once the rule fails
    ``gram`` stays None, validation refuses the record, and each later block
    is ``_BLOCK_ROWS`` rows whatever len(y) is, only counted and scanned for
    non-finite entries.  A response longer than its design allows sums no
    larger than its own design's, as p <= len(y) / 2.  A probe's generator
    and sums are made at the first sum.
    """

    def __init__(self, y: np.ndarray | None, m):
        self.y, self.n, self.p, self.gram, self.x_finite = y, 0, None, None, True
        self._m, self._pending, self._filled = m, None, 0
        self.block_rows = _BLOCK_ROWS if y is None else min(_BLOCK_ROWS, len(y)) or _BLOCK_ROWS

    def fold_from(self, reader, rows: int, cols: int) -> None:
        """Add ``rows`` rows of ``cols`` doubles read from ``reader`` into the block buffer."""
        while rows:
            view = self._buffer(cols)[self._filled : self._filled + rows]
            if reader.readinto(view) != view.nbytes:
                raise EOFError("a chunk's worker sent fewer rows than it announced")
            self._took(len(view))
            rows -= len(view)

    def finish(self) -> "_Sums":
        if self._pending is None:
            raise ValueError("the design has no rows")
        if self._filled:
            self._add(self._pending[: self._filled])
        self._pending = None
        return self

    @property
    def probe_products(self) -> tuple | None:
        """(X^T Z, Z^T y, Z^T Z), or None where no probe was drawn."""
        return None if self._m is None else (self.xtw, self.wty, self.wtw)

    def _buffer(self, cols: int) -> np.ndarray:
        if self._pending is not None and cols != self._pending.shape[1]:
            raise ValueError(f"a chunk has {cols} columns, the first chunk {self._pending.shape[1]}")
        if self._pending is None or len(self._pending) < self.block_rows:  # first, or refused
            self._pending = np.empty((self.block_rows, cols))
        return self._pending

    def _took(self, k: int) -> None:
        self._filled += k
        if self._filled == self.block_rows:
            self._add(self._pending)
            self._filled = 0

    def _add(self, block: np.ndarray) -> None:
        """Add the next block of rows, unbuffered, under the shape rule."""
        start, self.n = self.n, self.n + len(block)
        p = self.p = block.shape[1]
        if self.y is None or len(self.y) < max(self.n, 2 * p):
            self.gram, self.block_rows = None, _BLOCK_ROWS
            self.x_finite = self.x_finite and bool(np.all(np.isfinite(block)))
            return
        if self.gram is None:
            self.gram, self.xty, self.row_norm_sq_max = np.zeros((p, p)), np.zeros(p), -np.inf
            if self._m is not None:
                self._probe = _probe_generator()
                self.xtw, self.wty, self.wtw = np.zeros((p, p)), np.zeros(p), np.zeros((p, p))
        y = self.y[start : self.n]
        with np.errstate(over="ignore", invalid="ignore"):
            gram = block.T @ block
            if not np.all(np.isfinite(gram)):
                self.x_finite = self.x_finite and bool(np.all(np.isfinite(block)))
            self.gram += gram
            row_norms_sq = np.einsum("ij,ij->i", block, block)
            self.row_norm_sq_max = float(row_norms_sq.max(initial=self.row_norm_sq_max))
            self.xty += block.T @ y
            if self._m is not None:
                w = self._probe.standard_normal(block.shape)
                if np.ndim(self._m):
                    w -= block @ self._m
                self.xtw += block.T @ w
                self.wtw += w.T @ w
                self.wty += w.T @ y


@dataclass(frozen=True)
class NormBounds:
    """Norm bounds used by the sensitivity calculus.

    ``row_bound_B`` bounds the l2 norm of every row of the raw design;
    ``col_min_C`` is the smallest column l2 norm.  The row-influence ratio
    eta^2 = B^2 / (C_min^2 - B^2) is only defined when B < C_min, so that
    inequality is enforced here.
    """

    row_bound_B: float
    col_min_C: float

    def __post_init__(self):
        if not (self.row_bound_B > 0 and self.col_min_C > 0):
            raise BoundViolation("norm bounds must be strictly positive")
        if self.row_bound_B >= self.col_min_C:
            raise BoundViolation(
                "row bound B must be strictly below the smallest column norm "
                "C_min; otherwise the row-influence ratio eta^2 = "
                "B^2/(C_min^2 - B^2) is undefined"
            )


@dataclass(frozen=True)
class ModelOracle:
    """Bounds on the unknown model parameters, plus optional ground truth.

    The privacy calibration needs an upper bound on ||beta||_2 and on the
    noise variance sigma^2; the library never estimates either.  Simulations
    additionally carry the true coefficient vector, whose support scores
    per-trial FDP and power.
    """

    beta_norm_bound: float
    sigma2_bound: float
    true_beta: np.ndarray | None = None

    def __post_init__(self):
        if not self.beta_norm_bound >= 0:  # refuses nan; +inf is refused at calibration
            raise ValueError("beta_norm_bound must be nonnegative")
        if not self.sigma2_bound > 0:
            raise ValueError("sigma2_bound must be strictly positive")
        if self.true_beta is not None:
            beta = np.asarray(self.true_beta, dtype=float).ravel()
            object.__setattr__(self, "true_beta", beta)
            norm = float(np.linalg.norm(beta))
            if self.beta_norm_bound < norm * (1.0 - 1e-12):
                raise ValueError(
                    f"beta_norm_bound={self.beta_norm_bound:g} is below the "
                    f"true coefficient norm {norm:g}"
                )

    @property
    def true_support(self) -> frozenset | None:
        """The indices of the nonzeros of ``true_beta``; None without it."""
        if self.true_beta is None:
            return None
        return frozenset(int(j) for j in np.flatnonzero(self.true_beta))


def load_dataset(x_path, y_path, has_header: bool = False) -> Dataset:
    """Load a design matrix and response vector from CSV files into a record.

    The design file holds one sample per row with comma-separated numeric
    fields; the response file holds one value per line.  When ``has_header``
    is set the first line of each file is skipped.  A file with no data
    rows, or a response file with more than one value per line, raises
    :class:`ParseError` naming the file; the design file's errors come
    before the response file's.

    Every design is summed one way: its rows, exactly the rows one
    ``np.loadtxt`` of the whole file returns, are summed in :class:`_Sums`'
    blocks with the rows of the probe W, so a file gives the same record
    bits however it is read.  Only a pipe keeps its rows, for a refined
    probe.  A regular file is streamed: it is cut into newline-aligned
    chunks of about ``_CHUNK_BYTES``; forked workers, one per CPU in
    :func:`_cpus` at most, each read every w-th chunk with one
    ``os.pread`` and parse it, holding its text and rows; this process reads
    each chunk's rows from its worker's pipe and sums them in row order.  A
    name ``np.loadtxt`` decompresses (``.gz``, ``.bz2``, ``.xz``, ``.lzma``)
    is never streamed, whatever its bytes, and any failure of the stream (a
    fork, a worker, a short read, a warning, a column count) falls back to
    one ``np.loadtxt`` of the whole file, so errors, warnings and row numbers
    are those of the serial parse.  Every route folds on one OpenBLAS thread,
    so a library call gives the CLI's record bits, which are those of
    :meth:`Dataset.from_arrays` of the same rows under the same pin.
    """
    return _load_record(x_path, y_path, has_header, probe=True)


def _load_record(x_path, y_path, has_header: bool, probe: bool) -> Dataset:
    """:func:`load_dataset`; without ``probe`` no probe rows are drawn or summed."""
    skip = 1 if has_header else 0
    try:
        y, y_error = _read_response(y_path, skip), None
    except Exception as exc:  # raised after the design file's own errors
        y, y_error = None, exc
    m = 0 if probe else None
    if _regular(x_path):
        sums, source = _design_sums(x_path, skip, y, m), {"design_file": (x_path, skip)}
    else:  # a pipe can be read only once, so its rows are kept for a refined probe
        sums, x = _parsed(x_path, skip, y, m)
        source = {"x": x}
    if y_error is not None:
        raise y_error
    return Dataset._summed(sums, **source)


def _read_response(path, skip: int) -> np.ndarray:
    read = functools.partial(np.loadtxt, path, skiprows=skip, ndmin=2, dtype=float)
    y = _read_table(path, "response", read)
    if y.shape[1] != 1:
        raise ParseError(f"response file {path} has {y.shape[1]} values per line; expected one")
    return y.ravel()


def _read_table(path, kind: str, parse) -> np.ndarray:
    """``parse()`` one input file; a parse failure or no data rows is a ParseError naming it."""
    with warnings.catch_warnings():
        # refused below by file name rather than reported as numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = parse()
        except OSError:
            raise
        except Exception as exc:
            raise ParseError(f"could not parse {kind} file {path}: {exc}") from exc
    if table.shape[0] == 0:
        raise ParseError(f"{kind} file {path} contains no data")
    return table


def _loadtxt_csv(source, skip: int) -> np.ndarray:
    return np.loadtxt(source, delimiter=",", skiprows=skip, ndmin=2, dtype=float)


def _regular(path) -> bool:
    """A regular file; a path that cannot be stat'ed is left to np.loadtxt."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def _parsed(path, skip: int, y, m) -> tuple[_Sums, np.ndarray]:
    """One ``np.loadtxt`` of the whole design file, and its rows' sums on one BLAS thread."""
    x = _read_table(path, "design", functools.partial(_loadtxt_csv, path, skip))
    with _single_blas_thread():
        return _folded(x, y, m), x


def _folded(x: np.ndarray, y, m) -> _Sums:
    """The sums of rows held in memory, added as views in the blocks a stream's buffer holds."""
    sums = _Sums(y, m)
    sums._add(x[: sums.block_rows])  # a design with no rows still sets p
    while sums.n < len(x):  # the rows added so far: a failed shape rule resizes the blocks
        sums._add(x[sums.n : sums.n + sums.block_rows])
    return sums


def _design_sums(path, skip: int, y, m) -> _Sums:
    """The record's sums over a regular design file, streamed.

    Any failure of the stream re-reads the file with one ``np.loadtxt``,
    whose rows give the same sums and whose errors are the serial parse's.
    """
    try:
        return _stream(path, skip, y, m)
    except Exception:
        return _parsed(path, skip, y, m)[0]


def _stream(path, skip: int, y, m) -> _Sums:
    """Sums over the design file, parsed by forked workers in newline-aligned chunks.

    The file is cut into chunks of about ``_CHUNK_BYTES``, a multiple of the
    CPU count of them, and worker k of w parses chunks k, k + w, ...  This
    process parses nothing: it folds chunk i's rows from worker i mod w, in
    file order; a worker holds a chunk's text only while it parses it.  Any
    failure raises; a name np.loadtxt would decompress is refused.
    """
    if os.path.splitext(path)[1] in (".gz", ".bz2", ".xz", ".lzma"):  # numpy's openers
        raise ValueError(f"np.loadtxt decompresses {path}; its bytes are not its rows")
    cpus = _cpus()
    sums = _Sums(y, m)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        count = cpus * -(-size // (cpus * _CHUNK_BYTES))
        cuts = {size}
        for k in range(1, count):
            f.seek(size * k // count)
            f.readline()  # a cut falls just after a newline, or at the end of the file
            cuts.add(f.tell())
        chunks = list(zip([0, *sorted(cuts)], sorted(cuts)))
        w = min(cpus, len(chunks))
        bodies = (functools.partial(_send_chunks, f.fileno(), chunks[k::w], skip) for k in range(w))
        with _forked(bodies) as readers:
            for i in range(len(chunks)):
                reader = readers[i % w]
                sums.fold_from(reader, *struct.unpack("2q", reader.read(16)))
            return sums.finish()


def _send_chunks(fd: int, chunks, skip: int, writer) -> None:
    """Body of a forked worker: read each chunk [start, end) with one
    ``os.pread``, which moves no shared file offset, parse it and send its
    shape and rows; ``skip`` header lines are skipped where the file starts.
    A short read raises, so the load falls back to the serial parse."""
    for start, end in chunks:
        data = os.pread(fd, end - start, start)
        if len(data) != end - start:
            raise EOFError(f"read {len(data)} of the {end - start} bytes of a chunk")
        # the default encoding and universal newlines: what np.loadtxt opens a path with
        rows = _parse_part(io.TextIOWrapper(io.BytesIO(data)), skip if start == 0 else 0)
        del data  # the next read holds no two chunks' text
        writer.write(struct.pack("2q", *rows.shape))
        writer.write(rows)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else (macOS) ``os.cpu_count()`` or 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@contextlib.contextmanager
def _forked(bodies):
    """Fork one child per body, each with its own pipe; yield the read ends.

    numpy's OpenBLAS is pinned to one thread from before the first fork until
    every child is reaped, for the children and the ``with`` body alike.  A
    child runs ``body(writer)`` on its pipe's write end and ends in
    ``os._exit``, status 0 only where the body returned, never returning into
    the caller's stack; the threads this process may run (OpenBLAS's) hold
    no lock a body needs.  Any exception here SIGKILLs every child.  On
    leaving, every child is reaped, and a nonzero wait status raises.
    """
    readers, pids = [], []
    with _single_blas_thread():
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns that a process with threads forks; see above
                warnings.simplefilter("ignore", DeprecationWarning)
                for body in bodies:
                    read_fd, write_fd = os.pipe()
                    readers.append(open(read_fd, "rb"))
                    with open(write_fd, "wb") as writer:  # this process's copy closes on leaving
                        pid = os.fork()
                        if pid == 0:
                            _run_child(body, writer, readers)
                    pids.append(pid)
            yield readers
        except BaseException:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for reader in readers:
                reader.close()
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses):
        raise ChildProcessError(f"a forked child ended with wait status {max(statuses)}")


# Thread-count controls of the OpenBLAS bundled with numpy (the scipy-openblas64 build).
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or ().

    Looked up through numpy's linalg extension, whose symbol scope holds the
    OpenBLAS numpy links; empty where that library or the symbols are absent.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        getter, setter = (getattr(lib, name) for name in _BLAS_THREAD_SYMBOLS)
    except (OSError, AttributeError):
        return ()
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], None
    return getter, setter


@contextlib.contextmanager
def _single_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then restore.

    Held by :func:`_forked` for its whole life, by the fold in :func:`_parsed`
    and by ``cli.main`` around every command: small products, or products
    beside forked work, where more threads only spin.  Without the thread
    controls, or where OpenBLAS runs one thread already (a nested pin, any pin
    in a forked child), no control is called: OpenBLAS's fork handler stops its
    thread server and the next set call restarts it, whose idle thread spins on
    a core; a pin per sweep trial doubled sweep time (2 cores, n = 1e3, p = 50).
    """
    getter, setter = _blas_thread_controls() or (None, None)
    previous = getter() if getter else 1
    if previous == 1:
        yield
        return
    setter(1)
    try:
        yield
    finally:
        setter(previous)


def _run_child(body, writer, readers) -> None:
    status = 1
    try:
        for reader in readers:
            reader.close()
        body(writer)
        writer.close()
        status = 0
    finally:
        os._exit(status)


def _parse_part(text, skip: int) -> np.ndarray:
    """np.loadtxt of one chunk; a chunk may hold no rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any other warning fails the stream
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return _loadtxt_csv(text, skip)


def compute_bounds(d: Dataset, row_bound_override: float | None = None) -> NormBounds:
    """Derive norm bounds from the data, optionally overriding the row bound.

    ``col_min_C`` is always the exact smallest column norm.  ``row_bound_B``
    defaults to the observed largest row norm; ``row_bound_override``
    supplies a worst-case bound at or above it.  An override below it would
    calibrate for rows smaller than the data has, and raises
    :class:`BoundViolation` naming the override but not the private norm.
    """
    row_max = float(np.sqrt(d.row_norm_sq_max))
    b = row_max if row_bound_override is None else float(row_bound_override)
    if b < row_max:
        raise BoundViolation(
            f"row bound B={b!r} is below the observed maximum row norm; "
            "the calibration must cover every row"
        )
    return NormBounds(row_bound_B=b, col_min_C=float(d.col_norms.min()))
