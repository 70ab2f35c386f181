"""Exception types shared across the package."""


class IntlogicError(Exception):
    """Base class for every error raised by this package."""


class ValueOutOfRange(IntlogicError):
    """A truth value or measure weight lies outside [0, 1]."""


class CaptureError(IntlogicError):
    """Substituting a term would capture one of its free variables."""


class FlagMissing(IntlogicError):
    """The vocabulary flag required for this operation is not set."""


class UnknownSymbol(IntlogicError):
    def __init__(self, name, span=None, message=None):
        super().__init__(message or f"unknown symbol {name!r}")
        self.name = name
        self.span = span


class ArityMismatch(IntlogicError):
    def __init__(self, message, span=None):
        super().__init__(message)
        self.span = span


class NestedQuantEq(IntlogicError, ValueError):
    """Quantifier equality ('=') below the top level of a formula."""


class InvalidSpec(IntlogicError, ValueError):
    """A vocabulary or a model-generation spec contradicts itself."""


class ParseError(IntlogicError):
    """Malformed concrete syntax; carries the source span of the offence."""

    def __init__(self, message, span):
        super().__init__(message)
        self.span = span


class FormatError(IntlogicError):
    """A model / system / proof file does not match its schema."""


class MeasureNotNormalized(FormatError):
    """The measure weights of a model do not sum to exactly 1."""


class TableIncomplete(FormatError):
    """An interpretation table does not cover the whole of |M|^n."""


class UniverseTooLarge(IntlogicError):
    """Brute-force operation refused beyond its configured universe bound."""


class NotSubvocabulary(IntlogicError):
    """Reduct target vocabulary is not contained in the model's vocabulary."""


class UnboundVariable(IntlogicError):
    def __init__(self, name):
        super().__init__(f"variable {name!r} has no value in the valuation")
        self.name = name


class NotASentence(IntlogicError):
    def __init__(self, free):
        names = ", ".join(sorted(free))
        super().__init__(f"formula has free variables: {names}")
        self.free = frozenset(free)


class ContainmentViolated(IntlogicError):
    """A quantifier-equality level pair fails its containment precondition."""

    def __init__(self, pair, message=None):
        super().__init__(message or f"level pair {pair} violates containment")
        self.pair = pair


class NotCrisp(IntlogicError):
    """A {0,1}-valued fuzzy subset was required."""


class SentenceNotInSystem(IntlogicError):
    """The sentence is not part of the approximation system's pool."""


class NotASubuniverse(IntlogicError):
    """The first model's universe is not contained in the second's."""


class SearchSpaceTooLarge(IntlogicError):
    """Exhaustive search refused: the model space exceeds the bound."""
