"""Exception types shared across the package."""


class FormatError(ValueError):
    """Malformed automaton, model, or corpus file."""


class AlphabetMismatchError(ValueError):
    """Two operands declare incompatible alphabets."""


class CapExceededError(RuntimeError):
    """A configured resource cap was exceeded."""


class DeterminizationCapError(CapExceededError):
    """Subset construction grew past the configured state cap."""

    def __init__(self, cap):
        super().__init__(f"subset construction exceeded the cap of {cap} states")
        self.cap = cap
