"""Exception types shared across the package, and the precondition checks that raise them."""


class ErmuError(Exception):
    """Base class for package errors."""


class InvalidArgumentError(ErmuError, ValueError):
    """An argument violates a documented precondition."""


def check(ok: bool, message: str) -> None:
    """Raise ``InvalidArgumentError(message)`` unless ``ok``."""
    if not ok:
        raise InvalidArgumentError(message)


def check_one_of(key: str, value: str, kinds: tuple[str, ...]) -> None:
    """Raise ``InvalidArgumentError`` naming ``key`` unless ``value`` is one of ``kinds``."""
    check(value in kinds, f"{key} must be one of {', '.join(kinds)}; got {value!r}")


class SolverDivergedError(ErmuError, RuntimeError):
    """The iterative solver produced a non-finite or increasing objective.

    ``args`` holds both constructor arguments, so the error pickles: a worker
    process raises it back to the campaign intact.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(message, iteration)
        self.iteration = iteration

    def __str__(self) -> str:
        message, iteration = self.args
        return f"{message} (iteration {iteration})"


class LinearSolveError(ErmuError, RuntimeError):
    """A direct linear solve failed beyond jitter repair."""


class ConfigError(ErmuError, ValueError):
    """An experiment config failed to parse or validate."""
