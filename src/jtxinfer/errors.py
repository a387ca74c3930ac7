"""Diagnostic exception hierarchy shared by all pipeline stages."""

from __future__ import annotations


class JtxError(Exception):
    """Base class for all diagnostics raised by the compiler."""

    def __init__(self, message, line=None, col=None):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(self.format())

    def format(self):
        if self.line is not None:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class JtxSyntaxError(JtxError):
    """Malformed input at the token or grammar level."""


class UnsupportedFeature(JtxError):
    """Construct outside the supported language subset (try, wildcards, ...)."""


class UnknownImport(JtxError):
    """Import line naming a type absent from the built-in universe."""


class DuplicateClass(JtxError):
    """Two class declarations share a name within one program."""


class ArityMismatch(JtxError):
    """Generic class used with the wrong number of type arguments."""


class UnknownIdentifier(JtxError):
    """Variable reference that resolves to no parameter, local or field, or
    to a field that the initializer it is in may not read yet."""


class UnknownMember(JtxError):
    """Member access that matches no type in the universe."""


class Untypable(JtxError):
    """No candidate constraint set has a solution."""


class ResourceLimit(JtxError):
    """A search ran out of its step budget; says nothing about typability."""


class DescriptorCollision(JtxError):
    """Two typings of one method mangled to the same descriptor (internal error)."""
