"""Reading the files a user hands morbench, and writing the files it makes."""

import csv
import io
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def reading(path, what: str, error: type[Exception]):
    """The open input file as UTF-8 text, a leading byte-order mark skipped; a file that cannot
    be read or is not UTF-8 raises error naming what and path, as does any OSError in the body."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except OSError as exc:
        raise error(f"cannot read {what} {path} ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 ({exc.reason})") from exc


def csv_text(rows) -> str:
    """rows as CSV lines ending in ``\\n``, a field with a comma, quote or ``\\n`` quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


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
