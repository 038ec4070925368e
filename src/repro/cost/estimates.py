"""Size and selectivity estimation for query planning.

Gumbo decides how to group semi-joins *before* running any job, so it needs
estimates of

* ``|α|`` / ``|κ|`` — the size (MB) of the facts conforming to a guard or
  conditional atom,
* the intermediate (map output) data volume a job will produce, and
* the output size ``K`` of a job.

The paper (Section 5.1, optimization (3)) obtains these "through simulation of
the map function on a sample of the input relations"; the upper bound ``N_1``
is used for output sizes (Section 4.1).  :class:`StatisticsCatalog` implements
the sampling-based estimation of conforming fractions and semi-join
selectivities over an in-memory :class:`~repro.model.database.Database`, with
a deterministic sampler so planning is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..model.atoms import Atom
from ..model.database import Database
from ..model.terms import Variable


@dataclass(frozen=True)
class RelationStats:
    """Cardinality and size of one stored relation."""

    name: str
    tuples: int
    arity: int
    size_mb: float
    bytes_per_field: int

    @property
    def tuple_size_bytes(self) -> int:
        return self.arity * self.bytes_per_field

    def scaled(self, fraction: float) -> "RelationStats":
        """Stats for the subset containing *fraction* of the tuples."""
        fraction = max(0.0, min(1.0, fraction))
        return RelationStats(
            name=self.name,
            tuples=int(round(self.tuples * fraction)),
            arity=self.arity,
            size_mb=self.size_mb * fraction,
            bytes_per_field=self.bytes_per_field,
        )


class StatisticsCatalog:
    """Sampling-based statistics over a database, used by the planner.

    Parameters
    ----------
    database:
        The database to collect statistics on.
    sample_size:
        Maximum number of tuples sampled per relation when estimating the
        fraction of tuples conforming to an atom or matching a semi-join.
    seed:
        Seed for the deterministic sampler.
    """

    def __init__(
        self,
        database: Database,
        sample_size: int = 1000,
        seed: int = 20160522,
    ) -> None:
        self._database = database
        self._sample_size = max(1, sample_size)
        self._seed = seed
        self._relation_stats: Dict[str, RelationStats] = {}
        self._samples: Dict[str, List[Tuple[object, ...]]] = {}
        self._fraction_cache: Dict[Atom, float] = {}
        #: Counts the changes to the relation stats (:meth:`register_estimate`,
        #: :meth:`refresh_relation`): atom counts and the planner's memoised
        #: estimates hold while it stands still.
        self.generation = 0
        self._counts: Dict[Atom, float] = {}
        for relation in database:
            self._relation_stats[relation.name] = RelationStats(
                name=relation.name,
                tuples=len(relation),
                arity=relation.arity,
                size_mb=relation.size_mb(),
                bytes_per_field=relation.bytes_per_field,
            )

    # -- relation-level ----------------------------------------------------------

    @property
    def database(self) -> Database:
        return self._database

    def has_relation(self, name: str) -> bool:
        return name in self._relation_stats

    def relation_stats(self, name: str) -> Optional[RelationStats]:
        return self._relation_stats.get(name)

    def register_estimate(self, stats: RelationStats) -> None:
        """Register statistics for a relation that does not exist yet.

        Used for intermediate relations (the outputs of earlier subqueries)
        whose sizes the planner must guess before they are materialised.
        """
        self._relation_stats[stats.name] = stats
        self._changed()

    def refresh_relation(self, name: str) -> None:
        """Recompute the stats of one relation in place after a data change.

        The incremental serving path keeps the catalog alive across insert
        batches instead of rebuilding it: the mutated relation's cardinality
        and size are re-read from the live database, and the derived caches
        that depend on its contents — its sample and every conforming
        fraction of an atom over it — are dropped so they are lazily
        re-derived.  Other relations' statistics are untouched.
        """
        relation = self._database.get(name)
        if relation is None:
            self._relation_stats.pop(name, None)
        else:
            self._relation_stats[name] = RelationStats(
                name=relation.name,
                tuples=len(relation),
                arity=relation.arity,
                size_mb=relation.size_mb(),
                bytes_per_field=relation.bytes_per_field,
            )
        self._samples.pop(name, None)
        for atom in [a for a in self._fraction_cache if a.relation == name]:
            del self._fraction_cache[atom]
        self._changed()

    def _changed(self) -> None:
        self.generation += 1
        self._counts.clear()

    def scratch_copy(self) -> "StatisticsCatalog":
        """A copy whose registered estimates do not leak back into this catalog.

        The expensive parts — the per-relation samples and conforming-fraction
        cache — are *shared* (they are pure derived data of the stored
        relations), while the relation-stats mapping is copied so that
        :meth:`register_estimate` calls made while planning one query (whose
        intermediate names may collide with another query's) stay isolated.
        The copy starts at this catalog's generation, with no atom counts.
        """
        copy = StatisticsCatalog.__new__(StatisticsCatalog)
        copy._database = self._database
        copy._sample_size = self._sample_size
        copy._seed = self._seed
        copy._relation_stats = dict(self._relation_stats)
        copy._samples = self._samples
        copy._fraction_cache = self._fraction_cache
        copy.generation = self.generation
        copy._counts = {}
        return copy

    # -- sampling --------------------------------------------------------------------

    def sample(self, name: str) -> List[Tuple[object, ...]]:
        """A deterministic sample (without replacement) of relation *name*.

        Only samples of stored relations are cached: the database may gain a
        relation of that name later, and the cache is shared by every
        scratch copy.
        """
        if name in self._samples:
            return self._samples[name]
        relation = self._database.get(name)
        if relation is None:
            return []
        rows = relation.sorted_tuples()
        if len(rows) > self._sample_size:
            rng = random.Random(self._seed ^ hash(name) & 0xFFFFFFFF)
            rows = rng.sample(rows, self._sample_size)
        self._samples[name] = rows
        return rows

    # -- atom-level estimates ----------------------------------------------------------

    def atom_fraction(self, atom: Atom) -> float:
        """Estimated fraction of the relation's tuples conforming to *atom*.

        Atoms without constants or repeated variables trivially have fraction
        1.0; otherwise the fraction is estimated on the sample.  Fractions are
        cached only for relations the database holds: an intermediate's
        fraction follows the estimate registered for it, which differs from
        one query's scratch copy to the next.
        """
        if atom in self._fraction_cache:
            return self._fraction_cache[atom]
        stats = self._relation_stats.get(atom.relation)
        if stats is None or stats.tuples == 0:
            fraction = 0.0
        elif _is_unrestricted(atom):
            fraction = 1.0
        else:
            rows = self.sample(atom.relation)
            if not rows:
                # Relation registered via estimate only: assume unrestricted.
                fraction = 1.0
            else:
                matches = sum(1 for row in rows if atom.conforms(row))
                fraction = matches / len(rows)
        if atom.relation in self._database:
            self._fraction_cache[atom] = fraction
        return fraction

    def atom_count(self, atom: Atom) -> float:
        """Estimated number of facts conforming to *atom*, kept until the
        next change to the relation stats."""
        count = self._counts.get(atom)
        if count is None:
            stats = self._relation_stats.get(atom.relation)
            count = 0.0 if stats is None else stats.tuples * self.atom_fraction(atom)
            self._counts[atom] = count
        return count

    def atom_size_mb(self, atom: Atom) -> float:
        """Estimated size ``|atom|`` in MB of the facts conforming to *atom*."""
        stats = self._relation_stats.get(atom.relation)
        if stats is None:
            return 0.0
        return stats.size_mb * self.atom_fraction(atom)

    def atom_tuple_bytes(self, atom: Atom) -> int:
        """Size in bytes of one tuple of the atom's relation (fallback: 10/field)."""
        stats = self._relation_stats.get(atom.relation)
        if stats is None:
            return 10 * atom.arity
        return stats.tuple_size_bytes

    # -- semi-join selectivity --------------------------------------------------------------

    def semijoin_selectivity(self, guard: Atom, conditional: Atom) -> float:
        """Estimated fraction of guard facts surviving ``guard ⋉ conditional``.

        Estimated by probing a sample of the guard against the join-key set of
        a sample of the conditional relation.  When either sample is empty the
        paper's upper bound of 1.0 is returned (output ≈ guard size).
        """
        shared = guard.shared_variables(conditional)
        if not shared:
            # Boolean-style condition: either everything or nothing survives;
            # be conservative and keep the upper bound.
            return 1.0
        join_key = tuple(v for v in guard.variables if v in shared)
        guard_rows = [r for r in self.sample(guard.relation) if guard.conforms(r)]
        cond_sample = self.sample(conditional.relation)
        cond_rows = [r for r in cond_sample if conditional.conforms(r)]
        if not guard_rows:
            return 1.0
        if not cond_rows:
            # The conditional relation was sampled and nothing conforms: the
            # semi-join is (almost) empty.  Only when the relation could not be
            # sampled at all (e.g. a registered estimate) do we fall back to
            # the upper bound.
            return 0.0 if cond_sample else 1.0
        key_set = {
            tuple(binding[v] for v in join_key)
            for binding in (conditional.match(r) for r in cond_rows)
            if binding is not None
        }
        survivors = 0
        for row in guard_rows:
            binding = guard.match(row)
            if binding is None:
                continue
            if tuple(binding[v] for v in join_key) in key_set:
                survivors += 1
        return survivors / len(guard_rows)

    def semijoin_output_mb(
        self,
        guard: Atom,
        conditional: Atom,
        projection: Tuple[Variable, ...],
        use_selectivity: bool = False,
    ) -> float:
        """Estimated size in MB of ``pi_projection(guard ⋉ conditional)``.

        Defaults to the paper's upper bound (the full conforming-guard size,
        adjusted for the projection width); with *use_selectivity* the sampled
        selectivity is applied.
        """
        stats = self._relation_stats.get(guard.relation)
        if stats is None:
            return 0.0
        width_fraction = (
            len(projection) / guard.arity if guard.arity else 1.0
        )
        size = self.atom_size_mb(guard) * width_fraction
        if use_selectivity:
            size *= self.semijoin_selectivity(guard, conditional)
        return size


def _is_unrestricted(atom: Atom) -> bool:
    """True when every term is a variable and no variable repeats."""
    variables = [t for t in atom.terms]
    if any(not isinstance(t, Variable) for t in variables):
        return False
    return len(set(variables)) == len(variables)


def catalog_for(database: Database, sample_size: int = 1000) -> StatisticsCatalog:
    """Convenience constructor mirroring Gumbo's default sampling behaviour."""
    return StatisticsCatalog(database, sample_size=sample_size)
