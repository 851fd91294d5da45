"""Simulation parameters and their range validation.

Validation happens at the load boundary (:func:`SimParams.validate`, called
by the config loader); constructing a ``SimParams`` directly is unchecked so
tests can build deliberately odd instances (e.g. zero rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import MissingKeyError, RangeViolationError

ADJACENCY_MEMORY_MODES = ("persistent", "per_round")
EPSILON_TIE_MODES = ("zero", "one")

_U64_MASK = (1 << 64) - 1


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
    initial_persistence_A0: float = 0.5
    rng_seed: int = 0
    adjacency_memory: str = "persistent"
    epsilon_tie: str = "zero"

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
        return {
            "delta_adjacent": self.delta_adjacent,
            "delta_nonadjacent": self.delta_nonadjacent,
            "lambda": self.lambda_,
            "mu": self.mu,
            "r1": self.r1,
            "r2": self.r2,
            "mix_r": self.mix_r,
            "mix_a": self.mix_a,
            "rounds_K": self.rounds_K,
            "initial_persistence_A0": self.initial_persistence_A0,
            "rng_seed": self.rng_seed,
            "adjacency_memory": self.adjacency_memory,
            "epsilon_tie": self.epsilon_tie,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimParams":
        """Build from the JSON key set ("lambda" maps to ``lambda_``).

        The three plumbing keys (initial_persistence_A0, adjacency_memory,
        epsilon_tie) fall back to defaults; the model keys are required.
        """
        required = [
            "delta_adjacent", "delta_nonadjacent", "lambda", "mu",
            "r1", "r2", "mix_r", "mix_a", "rounds_K", "rng_seed",
        ]
        optional = {
            "initial_persistence_A0": cls.initial_persistence_A0,
            "adjacency_memory": cls.adjacency_memory,
            "epsilon_tie": cls.epsilon_tie,
        }
        known = set(required) | set(optional)
        for key in data:
            if key not in known:
                raise RangeViolationError(key, data[key], "not a config key")
        kwargs = {}
        for key in required:
            if key not in data:
                raise MissingKeyError(key)
            kwargs["lambda_" if key == "lambda" else key] = data[key]
        for key, default in optional.items():
            kwargs[key] = data.get(key, default)
        for key in ("rounds_K", "rng_seed"):
            if not isinstance(kwargs[key], int) or isinstance(kwargs[key], bool):
                raise RangeViolationError(key, kwargs[key], "integer")
        for key in ("delta_adjacent", "delta_nonadjacent", "lambda_", "mu",
                    "r1", "r2", "mix_r", "mix_a", "initial_persistence_A0"):
            value = kwargs[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                json_key = "lambda" if key == "lambda_" else key
                raise RangeViolationError(json_key, value, "number")
            kwargs[key] = float(value)
        return cls(**kwargs)
