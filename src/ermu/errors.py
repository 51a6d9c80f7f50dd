"""Exception types shared across the package, and the precondition checks that raise them."""

import dataclasses


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


def check_unread(spec, unread: dict[str, str]) -> None:
    """Raise ``<key> applies to <reason>`` unless each field of ``spec`` that ``unread`` maps
    to a reason, in the map's order, keeps its default: an unread value would change the
    config hash and nothing else. The key is the field's ``metadata["key"]`` or its name."""
    fields = {f.name: f for f in dataclasses.fields(spec)}
    for name, reason in unread.items():
        key = fields[name].metadata.get("key", name)
        check(getattr(spec, name) == fields[name].default, f"{key} applies to {reason}")


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
