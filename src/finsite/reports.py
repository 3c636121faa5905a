"""Shared error types and the validation report record."""

from __future__ import annotations

from typing import Any


class FinsiteError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FinsiteError):
    """Malformed or unresolvable input (bad file, unknown name, bad flag)."""


class ValidationError(FinsiteError):
    """Structurally well-formed input that violates a required invariant.

    report, when set, is the failed Report that names the violation.
    """

    def __init__(self, message: str, report: "Report | None" = None):
        super().__init__(message)
        self.report = report


class InternalCheckError(FinsiteError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class Report:
    """Outcome of a validator: ok, or the first violation found.

    kind is a short machine-readable tag; detail is human-readable; witness
    carries the offending identifiers so callers can point at the data.
    """

    __slots__ = ("ok", "kind", "detail", "witness")

    def __init__(self, ok: bool, kind: str = "ok", detail: str = "", witness: tuple[Any, ...] = ()):
        self.ok, self.kind, self.detail, self.witness = ok, kind, detail, witness

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ok, self.kind, self.detail, self.witness) == (
            other.ok, other.kind, other.detail, other.witness
        )

    def __hash__(self) -> int:
        return hash((self.ok, self.kind, self.detail, self.witness))

    @staticmethod
    def failure(kind: str, detail: str, witness: tuple[Any, ...] = ()) -> "Report":
        return Report(False, kind, detail, witness)

    @staticmethod
    def success(detail: str = "") -> "Report":
        return Report(True, detail=detail)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValidationError(f"{self.kind}: {self.detail}", self)

    def to_json(self) -> dict:
        from finsite.canon import cstr

        return {
            "ok": self.ok,
            "kind": self.kind,
            "detail": self.detail,
            "witness": [cstr(w) for w in self.witness],
        }
