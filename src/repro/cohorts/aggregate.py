"""Exact cohort accounting: fold per-flow results into aggregates.

A :class:`CohortAggregate` is the record a cohort driver reports: the
modeled population size, the statistical weight of the fluid lane's
representatives, and two integer counter maps — one for the weighted
representative lane, one for the weight-1 "solo" flows condensation
peeled off the fluid.  Everything here is pure integer arithmetic so
that expanding a cohort into parts at *any* event boundary and folding
the parts back is the identity on counters (the property the
hypothesis suite in ``tests/cohorts`` pins):

    fold(expand(agg, n)) == agg        for every n >= 1

The weighted ("modeled") view — what a 100× run reports as its
effective client-visible totals — is computed at read time via
:func:`modeled`, never stored, so no floating-point error can creep
into the aggregates themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CohortAggregate", "expand", "fold", "modeled"]


@dataclass(frozen=True)
class CohortAggregate:
    """One cohort's folded accounting at a point in sim time."""

    cohort: str
    #: Modeled population size (clients the cohort stands for).
    size: int
    #: Statistical weight of one representative in the fluid lane
    #: (``size / representatives``); solo flows always weigh 1.
    weight: float
    #: Raw integer counters of the representative lane.
    rep_counts: dict[str, int] = field(default_factory=dict)
    #: Raw integer counters of the condensed (solo) lane.
    solo_counts: dict[str, int] = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohortAggregate):
            return NotImplemented
        return (self.cohort == other.cohort
                and self.size == other.size
                and self.weight == other.weight
                and _nonzero(self.rep_counts) == _nonzero(other.rep_counts)
                and _nonzero(self.solo_counts)
                == _nonzero(other.solo_counts))


def _nonzero(counts: dict[str, int]) -> dict[str, int]:
    """Counter maps compare by content: a zero entry is no entry."""
    return {name: value for name, value in counts.items() if value}


def _split_int(value: int, parts: int) -> list[int]:
    """Split ``value`` into ``parts`` integers summing exactly to it.

    Quotient everywhere, remainder distributed to the first parts — the
    canonical split, so expand is deterministic.
    """
    quotient, remainder = divmod(value, parts)
    return [quotient + (1 if i < remainder else 0) for i in range(parts)]


def _split_counts(counts: dict[str, int], parts: int) -> list[dict[str, int]]:
    out: list[dict[str, int]] = [{} for _ in range(parts)]
    for name in sorted(counts):
        for i, piece in enumerate(_split_int(counts[name], parts)):
            if piece:
                out[i][name] = piece
    return out


def expand(agg: CohortAggregate, parts: int) -> list[CohortAggregate]:
    """Split one aggregate into ``parts`` sub-aggregates.

    Sizes and every counter are split integrally (no rounding loss);
    each part keeps the parent's weight, so :func:`fold` reassembles
    the parent exactly.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    sizes = _split_int(agg.size, parts)
    reps = _split_counts(agg.rep_counts, parts)
    solos = _split_counts(agg.solo_counts, parts)
    return [CohortAggregate(cohort=f"{agg.cohort}[{i}/{parts}]",
                            size=sizes[i], weight=agg.weight,
                            rep_counts=reps[i], solo_counts=solos[i])
            for i in range(parts)]


def _merge(maps: list[dict[str, int]]) -> dict[str, int]:
    out: dict[str, int] = {}
    for counts in maps:
        for name, value in counts.items():
            out[name] = out.get(name, 0) + value
    return out


def fold(parts: list[CohortAggregate]) -> CohortAggregate:
    """Sum sub-aggregates back into one (inverse of :func:`expand`).

    All parts must share one weight — folding differently-weighted
    fluids would silently change what the counters mean.
    """
    if not parts:
        raise ValueError("cannot fold zero parts")
    weights = {part.weight for part in parts}
    if len(weights) > 1:
        raise ValueError(f"cannot fold mixed weights {sorted(weights)}")
    return CohortAggregate(
        cohort=parts[0].cohort.split("[", 1)[0],
        size=sum(part.size for part in parts),
        weight=parts[0].weight,
        rep_counts=_merge([part.rep_counts for part in parts]),
        solo_counts=_merge([part.solo_counts for part in parts]))


def modeled(agg: CohortAggregate) -> dict[str, float]:
    """The weighted client-visible totals this cohort stands for.

    Representative-lane counts extrapolate by the cohort weight; solo
    flows carved out for per-flow fidelity count at weight 1.
    """
    out: dict[str, float] = {name: value * agg.weight
                             for name, value in agg.rep_counts.items()}
    for name, value in agg.solo_counts.items():
        out[name] = out.get(name, 0.0) + value
    return out
