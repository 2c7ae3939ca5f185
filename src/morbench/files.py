"""Atomic replacement of the files that morbench writes."""

import os
from pathlib import Path


def replace_atomically(path, write) -> None:
    """Call write(tmp) on ``<path>.tmp`` and rename it over path; on any failure
    the temporary is removed and an earlier file at path is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
