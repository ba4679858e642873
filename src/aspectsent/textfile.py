"""The program's outside input: line-by-line reading of the UTF-8 text files
it is given (corpora, config files and pretrained word vectors), and the one
error for input that is malformed."""

from __future__ import annotations


class InputError(ValueError):
    """Input from outside the program is malformed.

    The message names the file: a corpus, a config file, a vector file or a
    checkpoint, and the line wherever the reader has one. A command exits 1
    with it; every other exception is a fault of the program.
    """


def read_lines(path, where: str):
    """Yield (line number from 1, line) of a UTF-8 text file.

    A file that cannot be opened raises ``InputError("{where}: reason")``,
    and a line that is not valid UTF-8 ``InputError("{where}: line N: ...")``.
    Undecodable bytes are read as escapes, so lines split as they do in
    strict text mode and the error names the line that holds the bytes.
    """
    try:
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise InputError(f"{where}: {exc.strerror}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InputError(
                    f"{where}: line {line_no}: not UTF-8 at character {exc.start + 1}"
                ) from None
            yield line_no, line
