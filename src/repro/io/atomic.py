"""Crash-safe file replacement: the one temp-file + ``os.replace`` writer."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable, Union

__all__ = ["atomic_write"]


def atomic_write(
    path: Union[str, Path], data: Union[bytes, Callable[[BinaryIO], object]]
) -> None:
    """Replace ``path`` with ``data`` so readers never see a torn file.

    ``data`` is the file's bytes, or a callable that writes them to the
    open binary handle (e.g. :func:`~repro.io.streaming.write_npz`).
    They go to a sibling temp file (``<name>.<random>.tmp``) that is
    then renamed over ``path``; on any failure the temp file is removed
    and the error propagates.  The file gets the mode the umask leaves, as one
    written with ``open`` does.
    """
    path = Path(path)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
