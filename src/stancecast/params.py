"""Simulation parameters and their range validation.

Validation happens at the load boundary (:func:`SimParams.validate`, called
by the config loader); constructing a ``SimParams`` directly is unchecked so
tests can build deliberately odd instances (e.g. zero rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import MissingKeyError, RangeViolationError

ADJACENCY_MEMORY_MODES = ("persistent", "per_round")
EPSILON_TIE_MODES = ("zero", "one")

_U64_MASK = (1 << 64) - 1
# (field type, accepted types, allowed) of the type checks of a config, in
# the order they run; a bool passes neither. A field's type is its annotation
# as a string, under ``from __future__ import annotations``
_TYPE_CHECKS = (("int", int, "integer"), ("float", (int, float), "number"))


def _optional(default):
    """A field that a config may leave out; it falls back to ``default``."""
    return field(default=default, metadata={"optional": True})


def _key(name: str) -> str:
    """The config key of the field ``name``."""
    return "lambda" if name == "lambda_" else name


def _check_rng_seed(seed) -> None:
    """Raise :class:`RangeViolationError` for ``rng_seed`` unless ``seed`` is
    an integer in ``[-(2**63), 2**64)``: a signed or an unsigned 64-bit
    value. The one range rule of every seeded parameter set."""
    if not (isinstance(seed, int) and -(1 << 63) <= seed < (1 << 64)):
        raise RangeViolationError("rng_seed", seed, "64-bit integer")


@dataclass(frozen=True)
class SimParams:
    """All tunables of a cascade run.

    delta_adjacent / delta_nonadjacent weight influence along existing edges
    versus between unconnected nodes; lambda_ / mu weight near versus
    opposed stances; r1 / r2 are the spreader and receiver sampling
    fractions of the non-adjacent step; mix_r / mix_a split the sampled
    receivers between topic-aware and topic-unaware nodes (they sum to 1).
    """

    delta_adjacent: float = 0.8
    delta_nonadjacent: float = 0.2
    lambda_: float = 0.7
    mu: float = 0.2
    r1: float = 0.1
    r2: float = 0.05
    mix_r: float = 0.7
    mix_a: float = 0.3
    rounds_K: int = 10
    initial_persistence_A0: float = _optional(0.5)
    rng_seed: int = 0
    adjacency_memory: str = _optional("persistent")
    epsilon_tie: str = _optional("zero")

    @property
    def tie_epsilon(self) -> float:
        """Numeric epsilon applied when influence exactly equals persistence."""
        return 1.0 if self.epsilon_tie == "one" else 0.0

    def validate(self) -> "SimParams":
        """Check every range invariant; returns self for chaining."""
        def check(key, value, ok, allowed):
            if not ok:
                raise RangeViolationError(key, value, allowed)

        p = self
        check("delta_adjacent", p.delta_adjacent,
              0.5 < p.delta_adjacent <= 1.0, "(0.5, 1]")
        check("delta_nonadjacent", p.delta_nonadjacent,
              0.0 <= p.delta_nonadjacent < 0.5, "[0, 0.5)")
        check("lambda", p.lambda_, 0.5 <= p.lambda_ <= 1.0, "[0.5, 1]")
        check("mu", p.mu, 0.0 <= p.mu < 0.5, "[0, 0.5)")
        check("r1", p.r1, 0.0 <= p.r1 <= 1.0, "[0, 1]")
        check("r2", p.r2, 0.0 <= p.r2 <= 1.0, "[0, 1]")
        check("mix_r", p.mix_r, 0.5 <= p.mix_r <= 1.0, "[0.5, 1]")
        check("mix_a", p.mix_a, 0.0 <= p.mix_a < 0.5, "[0, 0.5)")
        check("mix_r", p.mix_r, abs(p.mix_r + p.mix_a - 1.0) <= 1e-9,
              "mix_r + mix_a = 1 (tolerance 1e-9)")
        check("rounds_K", p.rounds_K,
              isinstance(p.rounds_K, int) and p.rounds_K >= 1, "positive integer")
        check("initial_persistence_A0", p.initial_persistence_A0,
              0.0 <= p.initial_persistence_A0 <= 1.0, "[0, 1]")
        _check_rng_seed(p.rng_seed)
        check("adjacency_memory", p.adjacency_memory,
              p.adjacency_memory in ADJACENCY_MEMORY_MODES,
              f"one of {ADJACENCY_MEMORY_MODES}")
        check("epsilon_tie", p.epsilon_tie,
              p.epsilon_tie in EPSILON_TIE_MODES, f"one of {EPSILON_TIE_MODES}")
        return self

    def normalized_seed(self) -> int:
        """rng_seed reduced to an unsigned 64-bit value."""
        return self.rng_seed & _U64_MASK

    def with_seed(self, seed: int) -> "SimParams":
        return replace(self, rng_seed=seed)

    def to_dict(self) -> dict:
        """The config keys and values, in field order."""
        return {_key(f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimParams":
        """Build from the JSON key set ("lambda" maps to ``lambda_``).

        The three plumbing keys (initial_persistence_A0, adjacency_memory,
        epsilon_tie) fall back to defaults; the model keys are required.
        """
        keys = {_key(f.name): f for f in fields(cls)}
        for key in data:
            if key not in keys:
                raise RangeViolationError(key, data[key], "not a config key")
        for key, f in keys.items():
            if key not in data and not f.metadata.get("optional"):
                raise MissingKeyError(key)
        values = {key: data.get(key, f.default) for key, f in keys.items()}
        for kind, types, allowed in _TYPE_CHECKS:
            for key, f in keys.items():
                value = values[key]
                if f.type == kind and (isinstance(value, bool)
                                       or not isinstance(value, types)):
                    raise RangeViolationError(key, value, allowed)
        return cls(**{f.name: float(values[key]) if f.type == "float"
                      else values[key] for key, f in keys.items()})
