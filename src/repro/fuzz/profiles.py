"""Pluggable value profiles for the workload fuzzer's random databases.

A :class:`ValueProfile` decides what the *data* of a generated database looks
like: how many tuples a relation gets and how its values are distributed.
Different profiles push the evaluation strategies into different regimes:

* ``uniform``     — independent uniform values, the paper's default setup
  (reusing the domain-scaling convention of :mod:`repro.workloads.generator`);
* ``zipf``        — Zipf-skewed values (heavy hitters on small values, via the
  shared :func:`repro.workloads.generator.zipf_values` sampler), stressing the
  hash-partitioned shuffle and the skew-aware MSJ assumptions;
* ``correlated``  — all columns of a tuple derive from one seed value, so
  join keys correlate across relations (selectivity estimates go wrong in
  interesting ways);
* ``degenerate``  — empty relations, single-tuple relations, and relations
  whose tuples all share one join-key value: the edge cases hand-written
  workloads miss;
* ``adversarial`` — mixed-type values (ints, strings, floats, ``None``) and
  occasional empty relations, stressing the columnar kernels' type handling
  and the type-tagged sort order;
* ``mixed``       — picks one of the above per relation (the fuzzing
  default: one database exercises several regimes at once).

Profiles are looked up by name through :func:`make_profile` and the
``PROFILES`` registry, mirroring how execution backends are selected.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Tuple

from ..workloads.generator import zipf_values

#: Tuple rows produced for one relation.
Rows = List[Tuple[object, ...]]


class ValueProfile:
    """Base class: decides cardinality and values of generated relations.

    The unit of generation is one relation, produced by :meth:`generate`.
    :meth:`cardinality` and :meth:`rows` are the two halves of that template:
    stateful profiles (``mixed``, ``degenerate``) pick their per-relation
    shape in :meth:`cardinality` and have :meth:`rows` honour it, so a
    :meth:`rows` call is only meaningful after the :meth:`cardinality` call
    for the same relation — callers wanting one-shot generation should use
    :meth:`generate`.
    """

    #: Registry name of the profile.
    name: str = "abstract"

    def generate(
        self, rng: random.Random, arity: int, max_tuples: int, domain: int
    ) -> Rows:
        """Produce one relation's rows: cardinality choice, then values."""
        count = self.cardinality(rng, max_tuples)
        return self.rows(rng, arity, count, domain)

    def cardinality(self, rng: random.Random, max_tuples: int) -> int:
        """How many tuples a relation receives (before set-deduplication)."""
        return rng.randint(0, max_tuples) if max_tuples > 0 else 0

    def rows(
        self, rng: random.Random, arity: int, count: int, domain: int
    ) -> Rows:
        """Generate *count* rows of the given *arity* over ``range(domain)``.

        Must be preceded by the relation's :meth:`cardinality` call for
        stateful profiles (see the class docstring).
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class UniformProfile(ValueProfile):
    """Independent uniform values — the paper's experimental setup in miniature."""

    name = "uniform"

    def rows(self, rng: random.Random, arity: int, count: int, domain: int) -> Rows:
        return [
            tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(count)
        ]


class ZipfProfile(ValueProfile):
    """Zipf-skewed values: small values are heavy hitters."""

    name = "zipf"

    def __init__(self, skew: float = 1.2) -> None:
        self.skew = skew

    def rows(self, rng: random.Random, arity: int, count: int, domain: int) -> Rows:
        # One batched draw for all cells (the weight list is built once).
        values = zipf_values(rng, count * arity, domain, self.skew)
        return [
            tuple(values[row * arity : (row + 1) * arity]) for row in range(count)
        ]


class CorrelatedProfile(ValueProfile):
    """Columns derived from one seed value, so values correlate across columns
    and (because every relation shares the construction) across relations."""

    name = "correlated"

    def rows(self, rng: random.Random, arity: int, count: int, domain: int) -> Rows:
        rows: Rows = []
        for _ in range(count):
            seed = rng.randrange(domain)
            rows.append(tuple((seed + column) % domain for column in range(arity)))
        return rows


class DegenerateProfile(ValueProfile):
    """Empty relations, singletons, and single-join-key relations.

    Three per-relation shapes: *empty*, a *singleton* tuple ``(v, ..., v)``,
    and a *constant-key* relation whose first column holds one fixed value
    while the remaining columns vary — many tuples all hashing to the same
    join key (relations are sets, so repeating one identical tuple would
    silently collapse to a singleton).
    """

    name = "degenerate"

    def __init__(self) -> None:
        self._shape = 0

    def cardinality(self, rng: random.Random, max_tuples: int) -> int:
        self._shape = rng.randrange(3)
        if self._shape == 0:
            return 0
        if self._shape == 1:
            return 1
        return rng.randint(0, max_tuples) if max_tuples > 0 else 0

    def rows(self, rng: random.Random, arity: int, count: int, domain: int) -> Rows:
        value = rng.randrange(domain)
        if self._shape == 1 or arity == 1:
            # A single repeated value; for arity 1 the constant-key shape
            # would dedup to this anyway.
            return [tuple(value for _ in range(arity)) for _ in range(count)]
        return [
            (value, *(rng.randrange(domain) for _ in range(arity - 1)))
            for _ in range(count)
        ]


def _adversarial_value(draw: int) -> object:
    """Map a domain draw to a typed value, deterministically.

    The mapping is a pure function of the draw, so equal draws produce equal
    values in every relation — join keys stay joinable across the mixed-type
    columns.  NaN is deliberately absent: the multi-process backend ships rows
    to its workers, which clones a NaN into distinct objects that no longer compare
    equal anywhere (a genuine property of ``float("nan")``, not a bug), so
    NaN parity is covered by in-process unit tests instead
    (``tests/test_kernels.py``).
    """
    kind = draw % 4
    if kind == 0:
        return draw
    if kind == 1:
        return f"s{draw}"
    if kind == 2:
        return draw + 0.5
    return None


class AdversarialProfile(ValueProfile):
    """Mixed-type columns and occasional empty relations.

    Exercises the columnar kernel path where typed-array packing must fall
    back to object columns, ``_naturally_sortable`` must reject the column,
    and the type-tagged sort order decides determinism.
    """

    name = "adversarial"

    def cardinality(self, rng: random.Random, max_tuples: int) -> int:
        if rng.random() < 0.15:
            return 0
        return rng.randint(0, max_tuples) if max_tuples > 0 else 0

    def rows(self, rng: random.Random, arity: int, count: int, domain: int) -> Rows:
        return [
            tuple(_adversarial_value(rng.randrange(domain)) for _ in range(arity))
            for _ in range(count)
        ]


class MixedProfile(ValueProfile):
    """Per-relation random choice among the other profiles (the default)."""

    name = "mixed"

    def __init__(self) -> None:
        self._choices: List[ValueProfile] = [
            UniformProfile(),
            ZipfProfile(),
            CorrelatedProfile(),
            DegenerateProfile(),
            AdversarialProfile(),
        ]
        self._active: ValueProfile = self._choices[0]

    def cardinality(self, rng: random.Random, max_tuples: int) -> int:
        # cardinality() is called once per relation, before rows(): pick the
        # per-relation profile here so both decisions come from one profile.
        self._active = rng.choice(self._choices)
        return self._active.cardinality(rng, max_tuples)

    def rows(self, rng: random.Random, arity: int, count: int, domain: int) -> Rows:
        return self._active.rows(rng, arity, count, domain)


#: Profile registry: name -> factory.
PROFILES: Dict[str, Callable[[], ValueProfile]] = {
    UniformProfile.name: UniformProfile,
    ZipfProfile.name: ZipfProfile,
    CorrelatedProfile.name: CorrelatedProfile,
    DegenerateProfile.name: DegenerateProfile,
    AdversarialProfile.name: AdversarialProfile,
    MixedProfile.name: MixedProfile,
}

#: Names accepted by ``repro fuzz --profile``.
PROFILE_NAMES = tuple(sorted(PROFILES))


def make_profile(name: str) -> ValueProfile:
    """Instantiate a profile by registry name."""
    try:
        factory = PROFILES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown value profile {name!r}; expected one of {PROFILE_NAMES}"
        ) from None
    return factory()
