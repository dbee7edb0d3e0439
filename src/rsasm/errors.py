"""Exception types shared across the package."""


class RsasmError(Exception):
    """Base class for all errors raised by this package."""


class TreeError(RsasmError):
    """Malformed tree/context or invalid node addressing."""


class SignatureError(RsasmError):
    """Unknown symbol or arity mismatch against the active signature."""


class EvalError(RsasmError):
    """Term evaluation failure (unbound variable, bad operand kinds)."""


class StateError(RsasmError):
    """Invalid state construction or incompatible states."""


class UndeclaredLocationError(StateError):
    """A defined location whose symbol the state's signature lacks or declares at another arity."""


class IsoError(RsasmError):
    """Mapping passed as an isomorphism is not a bijection on the base set."""


class RuleError(RsasmError):
    """Rule semantics violation (non-Boolean branch condition, bad operator)."""


class ReflectError(RsasmError):
    """Self-representation encode/decode failure."""


class EngineError(RsasmError):
    """Run-level invariant violation (signature shrank, self missing)."""


class ParseError(RsasmError):
    """Program text rejected."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
