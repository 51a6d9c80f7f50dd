"""Experiment configuration: parsing, validation, canonical hashing.

The schema is the spec dataclasses. Each JSON object of a config is one
frozen dataclass whose fields are its keys: ``ExperimentConfig`` and its
sections below, ``FamilySpec`` and ``ProblemSpec`` (``ermu.universality``)
and ``SolverConfig`` (``ermu.solver``). One generic reader takes each JSON
value as its annotated type, and one generic writer builds ``normalized()``,
so a new field needs no edit here. Unknown keys anywhere are hard errors so
typos cannot silently fall back to defaults, and each dataclass checks its
values when it is built, so a bad value fails at parse time. The canonical
hash is taken over the fully normalized config (defaults materialized, keys
sorted, no whitespace), so formatting changes never alter it and any
semantic change does; a float field written as an integer literal hashes
as the float. ``threads`` is left out: the worker count changes no result,
so one experiment has one hash on any machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ermu.errors import ConfigError, InvalidArgumentError, check, check_one_of, check_unread
from ermu.free_energy import CANDIDATE_KINDS
from ermu.solver import SolverConfig
from ermu.universality import FamilySpec, ProblemSpec

# Fields left out of ``normalized()`` and the hash: the worker count is a
# deployment setting, and no artifact but the manifest depends on it.
_UNHASHED = {"threads"}


@dataclass(frozen=True)
class TestRiskSettings:
    n_test: int = 2000  # 0 skips the test risk

    def __post_init__(self):
        check(self.n_test >= 0, "n_test must be >= 0")


@dataclass(frozen=True)
class BootstrapSettings:
    resamples: int = 2000
    level: float = 0.95

    def __post_init__(self):
        check(self.resamples >= 2, "resamples must be >= 2 (one resample has no spread)")
        check(0 < self.level < 1, "level must be in (0, 1)")


def _unread_when_disabled(settings) -> dict[str, str]:
    """A disabled stage reads none of its settings."""
    reason = "an enabled stage only; set enabled to true or leave {} out"
    return {f.name: reason.format(f.name) for f in dataclasses.fields(settings)}


@dataclass(frozen=True)
class FreeEnergySettings:
    enabled: bool = False
    M: int = 256
    beta_grid: tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    path_points: int = 10
    alpha: float = 0.5
    candidates: str = "solution-cloud"

    def __post_init__(self):
        check(self.M >= 1, "M must be >= 1")
        grid = self.beta_grid
        check(
            bool(grid) and grid[0] > 0 and all(a < b for a, b in zip(grid, grid[1:])),
            "beta_grid must be a nonempty, positive, strictly ascending list",
        )
        check(self.path_points >= 2, "path_points must be >= 2 (the path's two ends)")
        # The solution cloud's radii are alpha, alpha/2, ...: at 0 every point
        # is the solution, below 0 the radii are negative.
        check(self.alpha > 0, "alpha must be positive")
        check_one_of("candidates", self.candidates, CANDIDATE_KINDS)
        unread = {}
        if self.candidates != "solution-cloud":  # random_net takes no alpha
            unread["alpha"] = f"candidates 'solution-cloud' only; got {self.candidates!r}"
        check_unread(self, unread if self.enabled else _unread_when_disabled(self))


@dataclass(frozen=True)
class PerturbedSettings:
    enabled: bool = False
    s_values: tuple[float, ...] = (0.01, 0.1)
    # No longer read: the stage uses the exact twin test risk. Kept, with its
    # check, so configs that set it parse and hash as before.
    n_test: int = 2000

    def __post_init__(self):
        # The sweep sorts its s grid, so one order stands for every other.
        s_values = self.s_values
        check(
            bool(s_values) and s_values[0] > 0
            and all(a < b for a, b in zip(s_values, s_values[1:])),
            "s_values must be a nonempty, positive, strictly ascending list "
            "(each s also runs as -s)",
        )
        check(self.n_test >= 1, "n_test must be >= 1")
        check_unread(self, {} if self.enabled else _unread_when_disabled(self))


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    trials: int
    ladder: tuple[int, ...]
    families: tuple[FamilySpec, ...]
    problem: ProblemSpec
    solver: SolverConfig = SolverConfig()
    threads: int = 1
    save_matrices: bool = False
    test_risk: TestRiskSettings = TestRiskSettings()
    bootstrap: BootstrapSettings = BootstrapSettings()
    free_energy: FreeEnergySettings = FreeEnergySettings()
    perturbed: PerturbedSettings = PerturbedSettings()

    def __post_init__(self):
        check(self.trials >= 1, "trials must be >= 1")
        check(self.threads >= 1, "threads must be >= 1")
        check(bool(self.ladder), "ladder must be a nonempty list")
        check(all(v >= 1 for v in self.ladder), "ladder entries must be positive integers")
        check(
            all(a < b for a, b in zip(self.ladder, self.ladder[1:])),
            "ladder must be strictly increasing",
        )
        check(bool(self.families), "families must be nonempty")
        ids = [f.id for f in self.families]
        for fid in ids:
            check(ids.count(fid) == 1, f"duplicate family id {fid!r}")

    def normalized(self) -> dict:
        """Fully materialized dict used for hashing and the manifest."""
        return _to_json(self)

    def canonical_hash(self) -> str:
        canon = json.dumps(self.normalized(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _to_json(value: Any) -> Any:
    """The JSON form of a config value; the inverse of ``_read``."""
    if dataclasses.is_dataclass(value):
        return {
            f.metadata.get("key", f.name): _to_json(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in _UNHASHED
        }
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    return value


def _read(tp: Any, value: Any, path: str) -> Any:
    """The JSON ``value`` at ``path`` as the annotated type ``tp``.

    ``float`` takes an int or a finite float (``json`` reads ``NaN`` and
    ``Infinity``, which no float key accepts); ``int``, ``str`` and ``bool`` are
    strict (a bool is never a number); ``tuple[X, ...]`` takes a list of X
    and a dataclass takes an object.
    """
    if dataclasses.is_dataclass(tp):
        return _read_object(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        return tuple(_read(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {type(value).__name__}")
    if tp is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number}")
    return number


def _read_object(cls: type, raw: Any, path: str) -> Any:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{path}: unknown key {key!r} (allowed: {sorted(fields)})")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in fields.items():
        if key in raw:
            kwargs[f.name] = _read(hints[f.name], raw[key], f"{path}.{key}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing required key {key!r}")
    try:
        return cls(**kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(raw: Any) -> ExperimentConfig:
    return _read(ExperimentConfig, raw, "config")


def _unique_keys(path: str | Path, pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object of the file ``path``; a repeated key is an error, since
    ``json`` would keep the last of its values without a word."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{path}: repeated key {key!r}")
        obj[key] = value
    return obj


def read_json(path: str | Path) -> Any:
    """The JSON value in the file ``path``. A file that cannot be read, is not
    JSON or repeats a key within an object raises ``ConfigError`` naming ``path``."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(path, pairs))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json(path))
