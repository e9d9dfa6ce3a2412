"""The dict-based ``Measure`` and ``VertexFunction`` that the shared
array-based type in ``graphs`` replaced, kept as the reference its values,
errors, comparisons and hashes must match."""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from gneumann.errors import DomainMismatchError, NonPositiveMeasureError, UnknownVertexError


def _as_vertex(v) -> str:
    return v if isinstance(v, str) else str(v)


class Measure:
    """Strictly positive vertex measure with finite total mass."""

    def __init__(self, values: Mapping):
        vals = {}
        for v, m in values.items():
            v = _as_vertex(v)
            m = float(m)
            if not math.isfinite(m) or m <= 0:
                raise NonPositiveMeasureError(
                    f"measure must be strictly positive and finite, got m({v!r}) = {m}",
                    vertex=v, value=m,
                )
            vals[v] = m
        self._values = vals
        self._total = float(sum(vals.values()))

    @property
    def values(self) -> dict[str, float]:
        return dict(self._values)

    @property
    def total(self) -> float:
        return self._total

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self._values)

    def __getitem__(self, x) -> float:
        x = _as_vertex(x)
        try:
            return self._values[x]
        except KeyError:
            raise UnknownVertexError(f"measure not defined at {x!r}", vertex=x) from None

    def __contains__(self, x) -> bool:
        return _as_vertex(x) in self._values

    def restrict(self, vertices: Iterable) -> "Measure":
        return Measure({v: self[v] for v in vertices})

    def to_vector(self, order: Sequence[str]) -> np.ndarray:
        if set(order) != set(self._values):
            raise DomainMismatchError(
                "measure domain does not match the requested vertex set",
                missing=sorted(set(order) - set(self._values)),
                extra=sorted(set(self._values) - set(order)),
            )
        return np.array([self._values[v] for v in order])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(tuple(sorted(self._values.items())))

    def __repr__(self):
        return f"Measure(n={len(self._values)}, total={self._total:g})"


@dataclass(frozen=True)
class VertexFunction:
    """Real-valued function on a stated vertex set."""

    values: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "values", {str(k): float(v) for k, v in self.values.items()})

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.values)

    def __getitem__(self, x) -> float:
        return self.values[str(x)]

    def to_vector(self, order: Sequence[str]) -> np.ndarray:
        """Values in the given vertex order; the domains must coincide."""
        if set(order) != set(self.values):
            raise DomainMismatchError(
                "function domain does not match the expected vertex set",
                missing=sorted(set(order) - set(self.values)),
                extra=sorted(set(self.values) - set(order)),
            )
        return np.array([self.values[v] for v in order])

    @classmethod
    def from_vector(cls, order: Sequence[str], vec) -> "VertexFunction":
        vec = np.asarray(vec, dtype=float)
        if len(order) != vec.shape[0]:
            raise DomainMismatchError("vector length does not match vertex order")
        return cls(dict(zip(order, vec.tolist())))
