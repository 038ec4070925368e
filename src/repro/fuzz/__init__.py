"""Randomized differential testing of (B)SGF evaluation (``repro fuzz``).

The paper's experiments exercise 13 hand-picked queries; this package earns
breadth by generating random guardedness-respecting SGF programs and random
databases, evaluating every case with the reference evaluator (the semantics
by definition of Section 3.1, cross-checked by a whole-query sqlite3
translation) and with every applicable evaluation strategy
on every execution backend — including the dynamic re-planning executor —
and reporting any disagreement, greedily shrunk to a minimal counterexample.

The moving parts:

* :mod:`repro.fuzz.generator` — seeded program/database generation
  (:class:`FuzzConfig`, :func:`generate_case`);
* :mod:`repro.fuzz.profiles`  — pluggable data-value profiles
  (uniform / zipf / correlated / degenerate / mixed);
* :mod:`repro.fuzz.oracle`    — the :class:`DifferentialOracle`;
* :mod:`repro.fuzz.sql_oracle` — the SGF → SQL translation it consults;
* :mod:`repro.fuzz.shrink`    — greedy counterexample minimisation;
* :mod:`repro.fuzz.runner`    — the campaign driver (:func:`run_fuzz`),
  reporting and standalone repro-script emission.

Quick start::

    from repro.fuzz import FuzzOptions, run_fuzz
    report = run_fuzz(FuzzOptions(seed=7, iterations=50))
    assert report.ok, report.counterexamples[0].script()
"""

from .generator import (
    FuzzCase,
    FuzzConfig,
    case_rng,
    generate_case,
    generate_database,
    generate_insert_batch,
    generate_program,
)
from .oracle import DYNAMIC, DifferentialOracle, Divergence
from .profiles import (
    PROFILE_NAMES,
    PROFILES,
    CorrelatedProfile,
    DegenerateProfile,
    MixedProfile,
    UniformProfile,
    ValueProfile,
    ZipfProfile,
    make_profile,
)
from .runner import Counterexample, FuzzOptions, FuzzReport, repro_script, run_fuzz
from .shrink import case_size, shrink_case

__all__ = [
    "DYNAMIC",
    "PROFILES",
    "PROFILE_NAMES",
    "CorrelatedProfile",
    "Counterexample",
    "DegenerateProfile",
    "DifferentialOracle",
    "Divergence",
    "FuzzCase",
    "FuzzConfig",
    "FuzzOptions",
    "FuzzReport",
    "MixedProfile",
    "UniformProfile",
    "ValueProfile",
    "ZipfProfile",
    "case_rng",
    "case_size",
    "generate_case",
    "generate_database",
    "generate_insert_batch",
    "generate_program",
    "make_profile",
    "repro_script",
    "run_fuzz",
    "shrink_case",
]
