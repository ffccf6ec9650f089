import bz2
import contextlib
import functools
import gzip
import itertools
import lzma
import os
import threading
from pathlib import Path

import numpy as np
import pytest

# np.loadtxt decompresses a design file by its name's suffix
COMPRESSORS = {
    ".gz": gzip.open,
    ".bz2": bz2.open,
    ".xz": lzma.open,
    ".lzma": functools.partial(lzma.open, format=lzma.FORMAT_ALONE),
}


@pytest.fixture()
def zero_draws(monkeypatch):
    """Make the package's noise samplers draw exact zeros.

    A release adds exactly what it draws, so under this fixture it adds
    nothing while its noise-scale record stays the calibrated one.
    """

    def zeros(dim, scale, seed=None):
        return np.zeros(dim)

    monkeypatch.setattr("dpknockoff.privacy.sample_gaussian_vector", zeros)
    monkeypatch.setattr("dpknockoff.privacy.sample_laplace_vector", zeros)


@pytest.fixture()
def compressed_copies():
    """A function giving, for a file, its copy under each compressed suffix."""

    def copies(path) -> list[str]:
        data = Path(path).read_bytes()
        for suffix, opener in COMPRESSORS.items():
            with opener(f"{path}{suffix}", "wb") as f:
                f.write(data)
        return [f"{path}{suffix}" for suffix in COMPRESSORS]

    return copies


@pytest.fixture()
def fifo_of(tmp_path):
    """A function giving a new FIFO that a thread writes a file's bytes into, once.

    Each FIFO must be opened by the test; teardown fails on one that was not.
    A reader may stop early, as a parse error does.
    """
    if not hasattr(os, "mkfifo"):
        pytest.skip("reads a design from a FIFO")
    writers, count = [], itertools.count()

    def fifo(path) -> str:
        data, name = Path(path).read_bytes(), tmp_path / f"fifo{next(count)}"
        os.mkfifo(name)

        def write():
            with contextlib.suppress(BrokenPipeError), open(name, "wb") as f:
                f.write(data)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        writers.append(writer)
        return str(name)

    yield fifo
    for writer in writers:
        writer.join(timeout=30)
        assert not writer.is_alive(), "a FIFO was never read"
