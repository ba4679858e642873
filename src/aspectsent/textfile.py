"""Line-by-line reading of the UTF-8 text files given as input: corpora,
config files and pretrained word vectors."""

from __future__ import annotations


def read_lines(path, error, where: str):
    """Yield (line number from 1, line) of a UTF-8 text file.

    A line that is not valid UTF-8 raises ``error("{where}: line N: ...")``.
    Undecodable bytes are read as escapes, so lines split as they do in
    strict text mode and the error names the line that holds the bytes.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise error(
                    f"{where}: line {line_no}: not UTF-8 at character {exc.start + 1}"
                ) from None
            yield line_no, line
