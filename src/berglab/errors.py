"""Error types shared across the package."""


class DomainError(ValueError):
    """Raised when an input violates a documented precondition.

    The CLI maps this to exit code 1, so library code should prefer it
    over bare ValueError for anything a user can trigger from outside.
    """

