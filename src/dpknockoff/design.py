"""Regression data records: ingestion, validation and norm bounds.

The fixed-X filter and both privacy mechanisms read a dataset (X, y) only
through p x p and length-p sums over its rows: the raw Gram X^T X, X^T y,
the largest squared row norm, and the products X^T W, W^T y and W^T W with
the probe W that spans the knockoffs' complement.  Normalization is the
diagonal scaling X' = X D with D = diag(1/||x_j||), so everything the filter
reads of X' follows from those sums: S' = D (X^T X) D, X'^T v = D X^T v, and
||x_j|| = sqrt((X^T X)_jj).  The filter never forms X'.  This module holds
that record, its validation, the norm bounds, and the CSV ingestion path,
which streams a design file into the record without holding the design.
"""

from __future__ import annotations

import contextlib
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


def _probe_generator(attempt: int) -> np.random.Generator:
    """The generator the default probe W of retry ``attempt`` is drawn from.

    W is its first n x p standard normals in row order, so drawing W a block
    of rows at a time gives the same bits as drawing it whole.
    """
    ss = np.random.SeedSequence(entropy=_PROBE_ENTROPY, spawn_key=(attempt,))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class Dataset:
    """The p x p record of one regression dataset: an n x p design X and a
    length-n response y, as the filter and the calibration read them.

    The record holds the raw Gram X^T X with the column norms
    sqrt(diag(X^T X)) and their reciprocals ``normalizer_d`` (the diagonal of
    D in X' = X D), X^T y, the largest squared row norm of X, and y.  It is
    validated at construction and immutable afterwards; every array is
    read-only.  Use :meth:`from_arrays` or :func:`load_dataset` instead of
    the bare constructor.

    An in-memory record keeps its design as ``x``: :meth:`from_arrays`
    copies the arrays it is given, so later writes to them do not reach it,
    and :func:`~dpknockoff.simulate.generate_trial` hands over the arrays it
    just drew.  Its probe products are formed from ``x`` when the filter
    asks for them.  A record :func:`load_dataset` streamed from a regular
    file has no ``x``: ``probe_sums`` holds (X^T W_0, W_0^T y, W_0^T W_0)
    for the first probe, summed during the same pass, and ``design_file``
    the (path, header lines) that :meth:`streamed_probe_products` reads again
    for any other probe.
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
        return cls._owned(np.array(x, dtype=float, ndmin=2), np.array(y, dtype=float).ravel())

    @classmethod
    def _owned(cls, x: np.ndarray, y: np.ndarray) -> "Dataset":
        """Validate a 2-D float x and 1-D float y, take ownership of both and
        sum them in one block."""
        n, p = x.shape
        # a non-finite x_ij makes (X^T X)_jj non-finite, so x is scanned only
        # where the Gram is not finite, or not formed because the shape is refused
        gram = _raw_gram(x) if y.shape[0] == n and n >= 2 * p else None
        col_norms = _validated_norms(n, p, gram, lambda: np.all(np.isfinite(x)), y)
        return cls(
            n=n, p=p, gram=gram, col_norms=col_norms, normalizer_d=1.0 / col_norms,
            xty=_crossprod(x, y), row_norm_sq_max=float(np.einsum("ij,ij->i", x, x).max()),
            y=y, x=x,
        )

    @classmethod
    def _streamed(cls, sums: "_Sums", y: np.ndarray, design_file: tuple) -> "Dataset":
        """Validate the sums streamed from a design file, in :meth:`_owned`'s order."""
        col_norms = _validated_norms(sums.n, sums.p, sums.gram, lambda: sums.x_finite, y)
        return cls(
            n=sums.n, p=sums.p, gram=sums.gram, col_norms=col_norms,
            normalizer_d=1.0 / col_norms, xty=sums.xty, row_norm_sq_max=sums.row_norm_sq_max,
            y=y, design_file=design_file, probe_sums=sums.probe_products,
        )

    def streamed_probe_products(self, attempt: int) -> tuple:
        """(X^T W, W^T y, W^T W) of a streamed record for the probe of ``attempt``.

        The first probe's were summed while the file was read; any other
        probe reads the design file once more.
        """
        if attempt == 0 and self.probe_sums is not None:
            return self.probe_sums
        path, skip = self.design_file
        sums = _design_sums(path, skip, self.y, attempt)
        if (sums.n, sums.p) != (self.n, self.p):
            raise ParseError(f"design file {path} changed while it was read")
        return sums.probe_products


def _validated_norms(n: int, p: int, gram, x_finite, y: np.ndarray) -> np.ndarray:
    """The column norms sqrt(diag(X^T X)) of a record the filter can use.

    ``gram`` is None where the shape is refused before it is formed, and
    ``x_finite()`` is asked only where the Gram is not finite.  The checks
    run in a fixed order, so a record with several defects names the first.
    """
    gram_finite = gram is not None and bool(np.all(np.isfinite(gram)))
    if not (gram_finite or x_finite()) or not np.all(np.isfinite(y)):
        raise InvalidDesign("design or response contains non-finite entries")
    if y.shape[0] != n:
        raise DimensionMismatch(f"response has {y.shape[0]} entries but design has {n} rows")
    if n < 2 * p:
        raise InvalidDesign(
            f"n={n} < 2p={2 * p}: a knockoff copy needs at least twice as "
            "many samples as features"
        )
    if not gram_finite:
        raise InvalidDesign("X^T X overflows double precision; rescale the design columns")
    col_norms = np.sqrt(np.diag(gram))
    if np.any(col_norms < ZERO_COLUMN_TOL):
        bad = int(np.argmin(col_norms))
        raise InvalidDesign(f"column {bad} has (near-)zero norm; the Gram matrix would be singular")
    return col_norms


def _raw_gram(x: np.ndarray) -> np.ndarray:
    """X^T X; an overflow is left in place for the validation to refuse."""
    return _crossprod(x, x)


def _crossprod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^T b; an overflow is left in place for its reader to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a.T @ b


# Rows per block of the streamed sums; the block buffer, one parsed block and
# one block of W are all the n x p data a streaming pass holds.
_BLOCK_ROWS = 1024


class _Sums:
    """Running sums over the rows of a design: X^T X, X^T y, the largest
    squared row norm and, for a probe ``attempt``, X^T W, W^T y and W^T W
    with the rows of W drawn alongside.

    Rows are summed in blocks of ``_BLOCK_ROWS`` counted from the first row,
    so the sums depend only on the rows, not on the parts they arrive in.
    Products with y are skipped where y is missing or too short; such a
    record is refused by its validation.
    """

    def __init__(self, y: np.ndarray | None, attempt: int | None):
        self.y, self.n, self.p, self.x_finite = y, 0, None, True
        self._probe = None if attempt is None else _probe_generator(attempt)
        self._filled = 0

    def fold(self, rows: np.ndarray) -> None:
        """Add rows in order, through the block buffer."""
        if len(rows):
            self._columns(rows.shape[1])
        while len(rows):
            k = min(len(rows), _BLOCK_ROWS - self._filled)
            self._pending[self._filled : self._filled + k] = rows[:k]
            self._took(k)
            rows = rows[k:]

    def fold_from(self, reader, rows: int, cols: int) -> None:
        """Add ``rows`` rows of ``cols`` doubles read from ``reader`` into the block buffer."""
        if rows:
            self._columns(cols)
        while rows:
            k = min(rows, _BLOCK_ROWS - self._filled)
            view = self._pending[self._filled : self._filled + k]
            if reader.readinto(view) != view.nbytes:
                raise EOFError("a design part's child sent fewer rows than it announced")
            self._took(k)
            rows -= k

    def finish(self) -> "_Sums":
        if self.p is None:
            raise ValueError("the design has no rows")
        if self._filled:
            self._add(self._pending[: self._filled])
        self._pending = None
        return self

    @property
    def probe_products(self) -> tuple | None:
        """(X^T W, W^T y, W^T W), or None where no probe was drawn."""
        return None if self._probe is None else (self.xtw, self.wty, self.wtw)

    def _columns(self, cols: int) -> None:
        if self.p is None:
            p = self.p = cols
            self.gram, self.xty, self.row_norm_sq_max = np.zeros((p, p)), np.zeros(p), -np.inf
            self.xtw, self.wty, self.wtw = np.zeros((p, p)), np.zeros(p), np.zeros((p, p))
            self._pending = np.empty((_BLOCK_ROWS, p))
        elif cols != self.p:
            raise ValueError(f"a part has {cols} columns, the first part {self.p}")

    def _took(self, k: int) -> None:
        self._filled += k
        if self._filled == _BLOCK_ROWS:
            self._add(self._pending)
            self._filled = 0

    def _add(self, block: np.ndarray) -> None:
        start, self.n = self.n, self.n + len(block)
        y = self.y[start : self.n] if self.y is not None and len(self.y) >= self.n else None
        with np.errstate(over="ignore", invalid="ignore"):
            gram = block.T @ block
            if not np.all(np.isfinite(gram)):  # as in Dataset._owned: x is scanned only here
                self.x_finite = self.x_finite and bool(np.all(np.isfinite(block)))
            self.gram += gram
            row_max = float(np.einsum("ij,ij->i", block, block).max())
            self.row_norm_sq_max = max(self.row_norm_sq_max, row_max)
            if y is not None:
                self.xty += block.T @ y
            if self._probe is not None:
                w = self._probe.standard_normal(block.shape)
                self.xtw += block.T @ w
                self.wtw += w.T @ w
                if y is not None:
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
                f"row bound B={self.row_bound_B:g} must be strictly below the "
                f"smallest column norm C_min={self.col_min_C:g}; otherwise the "
                "row-influence ratio eta^2 = B^2/(C_min^2 - B^2) is undefined"
            )


@dataclass(frozen=True)
class ModelOracle:
    """Bounds on the unknown model parameters, plus optional ground truth.

    The privacy calibration needs an upper bound on ||beta||_2 and on the
    noise variance sigma^2; the library never estimates either.  Simulations
    additionally carry the true coefficient vector and its support so that
    per-trial FDP and power can be scored.
    """

    beta_norm_bound: float
    sigma2_bound: float
    true_beta: np.ndarray | None = None
    true_support: frozenset | None = None

    def __post_init__(self):
        if self.beta_norm_bound < 0:
            raise ValueError("beta_norm_bound must be nonnegative")
        if self.sigma2_bound <= 0:
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
            support = frozenset(int(j) for j in np.flatnonzero(beta))
            if self.true_support is None:
                object.__setattr__(self, "true_support", support)
            elif frozenset(self.true_support) != support:
                raise ValueError("true_support does not match the nonzeros of true_beta")
        elif self.true_support is not None:
            object.__setattr__(self, "true_support", frozenset(int(j) for j in self.true_support))


def load_dataset(x_path, y_path, has_header: bool = False) -> Dataset:
    """Load a design matrix and response vector from CSV files into a record.

    The design file holds one sample per row with comma-separated numeric
    fields; the response file holds one value per line.  When ``has_header``
    is set the first line of each file is skipped.  A file with no data
    rows, or a response file with more than one value per line, raises
    :class:`ParseError` naming the file; the design file's errors come
    before the response file's.

    A regular design file is streamed: its rows, exactly the rows one
    ``np.loadtxt`` of the whole file returns, are summed block by block into
    the record together with the rows of the first probe W, and no n x p
    array is held.  Where ``os.sched_getaffinity`` lists more than one CPU
    the file is cut into newline-aligned parts, one per CPU: this process
    streams the first part and a forked child parses each other part, whose
    rows this process reads from a pipe and sums in row order.  The sums do
    not depend on the cut.  Any failure of the stream (a fork, a child, a
    warning, a column count) falls back to one ``np.loadtxt`` of the whole
    file, so errors, warnings and row numbers are those of the serial parse.
    A compressed name (which ``np.loadtxt`` decompresses) or anything but a
    regular file (a pipe can be read only once) is parsed whole and kept as
    an in-memory record.
    """
    return _load_record(x_path, y_path, has_header, probe=True)


def _load_record(x_path, y_path, has_header: bool, probe: bool) -> Dataset:
    """:func:`load_dataset`; without ``probe`` a streamed record sums no probe rows."""
    skip = 1 if has_header else 0
    try:
        y, y_error = _read_response(y_path, skip), None
    except Exception as exc:  # raised after the design file's own errors
        y, y_error = None, exc
    x = sums = None
    if _streamable(x_path):
        sums = _design_sums(x_path, skip, y, 0 if probe else None)
    else:
        x = _read_table(x_path, "design", functools.partial(_loadtxt_csv, x_path, skip))
    if y_error is not None:
        raise y_error
    if sums is None:
        return Dataset._owned(x, y)
    return Dataset._streamed(sums, y, (x_path, skip))


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


def _loadtxt_csv(source, skip: int, max_rows: int | None = None) -> np.ndarray:
    return np.loadtxt(
        source, delimiter=",", skiprows=skip, ndmin=2, dtype=float, max_rows=max_rows
    )


# np.loadtxt opens a file with one of these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _streamable(path) -> bool:
    """A regular, uncompressed file; a path that cannot be stat'ed is left to np.loadtxt."""
    try:
        return not str(path).endswith(_COMPRESSED) and stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def _design_sums(path, skip: int, y, attempt: int | None) -> _Sums:
    """The record's sums over a regular design file, streamed.

    Any failure of the stream re-reads the file with one ``np.loadtxt``,
    whose rows give the same sums and whose errors are the serial parse's.
    """
    try:
        return _stream(path, skip, y, attempt)
    except Exception:
        sums = _Sums(y, attempt)
        sums.fold(_read_table(path, "design", functools.partial(_loadtxt_csv, path, skip)))
        return sums.finish()


def _stream(path, skip: int, y, attempt: int | None) -> _Sums:
    """Sums over the design file read in newline-aligned parts, one per CPU.

    This process streams the first part in blocks while a forked child
    parses each other part whole; each child holds its rows until this
    process reads them from its pipe, in row order.  Any failure raises.
    """
    cpus = len(os.sched_getaffinity(0))
    sums = _Sums(y, attempt)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        cuts = {size}
        for k in range(1, cpus):
            f.seek(size * k // cpus)
            f.readline()  # a cut falls just after a newline, or at the end of the file
            cuts.add(f.tell())
        bounds = [0, *sorted(cuts)]
        parts = (functools.partial(_send_part, f.fileno(), start, end)
                 for start, end in zip(bounds[1:], bounds[2:]))
        with _forked(parts) as readers:
            with _text_range(f.fileno(), 0, bounds[1]) as text:
                while True:
                    block = _parse_part(text, skip, _BLOCK_ROWS)
                    skip = 0
                    sums.fold(block)
                    if len(block) < _BLOCK_ROWS:
                        break
            for reader in readers:
                sums.fold_from(reader, *struct.unpack("2q", reader.read(16)))
    return sums.finish()


def _send_part(fd: int, start: int, end: int, writer) -> None:
    """Body of a forked child: parse bytes [start, end) and send its shape and rows."""
    with _text_range(fd, start, end) as text:
        part = _parse_part(text, 0)
    writer.write(struct.pack("2q", *part.shape))
    writer.write(part)


@contextlib.contextmanager
def _forked(bodies):
    """Fork one child per body, each with its own pipe; yield the read ends.

    A child runs ``body(writer)`` on its pipe's write end and ends in
    ``os._exit``, status 0 only where the body returned, never returning into
    the caller's stack; the threads this process may run (OpenBLAS's) hold
    no lock a body needs.  Any exception here SIGKILLs every child.  On
    leaving, every child is reaped, and a nonzero wait status raises.
    """
    readers, pids = [], []
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


def _text_range(fd: int, start: int, end: int) -> io.TextIOWrapper:
    """Bytes [start, end) of a file, decoded and split into lines as for the whole file."""
    # the default encoding and universal newlines: what np.loadtxt opens a path with
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, end)))


def _parse_part(text, skip: int, max_rows: int | None = None) -> np.ndarray:
    """np.loadtxt of the next rows of a part; a part may hold none."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any other warning fails the stream
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # with max_rows, numpy notes a blank or comment line it does not count as a row
        warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
        return _loadtxt_csv(text, skip, max_rows)


class _ByteRange(io.RawIOBase):
    """Bytes [start, end) of an open file, read with ``os.preadv``.

    A positional read moves no shared file offset, so the forked children
    read one inherited descriptor side by side.
    """

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._pos, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = os.preadv(self._fd, [memoryview(buffer)[: self._end - self._pos]], self._pos)
        self._pos += n
        return n


def compute_bounds(d: Dataset, row_bound_override: float | None = None) -> NormBounds:
    """Derive norm bounds from the data, optionally overriding the row bound.

    ``col_min_C`` is always the exact smallest column norm.  ``row_bound_B``
    defaults to the observed largest row norm; ``row_bound_override``
    supplies a worst-case bound at or above it.  An override below it would
    calibrate for rows smaller than the data has, and raises
    :class:`BoundViolation` naming both values.
    """
    row_max = float(np.sqrt(d.row_norm_sq_max))
    b = row_max if row_bound_override is None else float(row_bound_override)
    if b < row_max:
        raise BoundViolation(
            f"row bound B={b!r} is below the observed maximum row norm {row_max!r}; "
            "the calibration must cover every row"
        )
    return NormBounds(row_bound_B=b, col_min_C=float(d.col_norms.min()))
