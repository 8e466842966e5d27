"""Exception types shared across the verification modules."""


class OrbcheckError(Exception):
    """Base class for all errors raised by this package."""


# atlas
class NonUnitaryGenerator(OrbcheckError):
    pass


class ClosureExceedsCap(OrbcheckError):
    pass


# foliated geometry
class NonPositiveDeterminant(OrbcheckError):
    pass


# cohomology
class NotPseudomanifold(OrbcheckError):
    pass


class NonOrientable(OrbcheckError):
    pass


class NoKahlerClass(OrbcheckError):
    pass


# scenarios / CLI
class ParseError(OrbcheckError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class MissingSection(OrbcheckError):
    pass


class ShapeMismatch(OrbcheckError):
    """Declared sizes or orders that do not fit each other across blocks."""


class UnknownCatalogEntry(OrbcheckError):
    pass
