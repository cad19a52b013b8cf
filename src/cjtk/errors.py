"""Exception types and validation findings shared across the toolkit.

Every error and finding carries a stable machine-readable ``code`` (an
UPPER_SNAKE string such as ``VERTEX_INDEX_OUT_OF_RANGE``) plus a
slash-separated ``path`` locating the offending member from the document
root.  Each validation layer adds its findings through ``reporters``.
"""

from __future__ import annotations

from collections import namedtuple


class CjtkError(Exception):
    """Base error with a stable code and an optional document path."""

    def __init__(self, code: str, message: str, path: str | None = None):
        self.code = code
        self.message = message
        self.path = path
        if path:
            super().__init__(f"{code} at {path}: {message}")
        else:
            super().__init__(f"{code}: {message}")


class CodecError(CjtkError):
    """Raised by the reader/writer; carries a line/column for syntax errors."""

    def __init__(self, code, message, path=None, line=None, column=None):
        super().__init__(code, message, path)
        self.line = line
        self.column = column


class GmlImportError(CjtkError):
    """Raised by the CityGML importer."""


class ExtensionError(CjtkError):
    """Raised when an extension file cannot be loaded."""


ERROR = "error"
WARNING = "warning"


class Finding(namedtuple("Finding", "path code severity message stage",
                         defaults=(ERROR, "", "structure"))):
    """One validation observation.

    Sort order is (path, code), which is the report order; ``stage`` names
    the validation layer that produced it (syntax, structure, consistency,
    extension).
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"code": self.code, "path": self.path, "message": self.message,
                "severity": self.severity, "stage": self.stage}


def reporters(out: list[Finding], stage: str):
    """(err, warn): functions adding a finding of ``stage`` to ``out``."""
    def reporter(severity):
        return lambda path, code, message: out.append(
            Finding(path, code, severity, message, stage))
    return reporter(ERROR), reporter(WARNING)
