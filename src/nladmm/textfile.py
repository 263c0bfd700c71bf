"""The one way the package writes a file: LF-terminated lines, overwritten
in place.

``open(path, "w")`` truncates an existing file to zero bytes first, and on
ext4 (default ``auto_da_alloc``) a file truncated to zero and written
again is flushed to disk when it closes: 100-250 us for a write that takes
under 20 us in place.
"""

from __future__ import annotations

import os
import stat
from typing import Iterable


def write_lines(path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by LF, to ``path`` as UTF-8.

    An existing regular file is overwritten from its start and then cut to
    the length of the new text, so it keeps its inode and mode; a new one
    gets mode 0o666 less the umask, as with ``open(path, "w")``. Any other
    target (a pipe, a terminal, ``/dev/null``) gets the text and is not cut:
    a device can seek but not be truncated. Nothing is fsynced, and a write
    cut short can leave the old file's bytes after the new ones.
    """
    data = ("\n".join(lines) + "\n").encode("utf-8")
    # The buffered writer retries the partial writes a pipe can return.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()
