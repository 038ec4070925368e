"""The hash-once and identity invariants of the planner's memo keys.

``Variable``, ``Atom``, ``SemiJoinSpec`` and ``BSGFQuery`` compute their hash
(and their derived views: an atom's variables, a spec's join key, a query's
conditional atoms and default specs) once, on first use; ``Variable`` and
``Atom`` compare by identity first, and the parser interns variables.  None
of the cached values may travel in a pickle: string hashing is salted per
process, so a shard worker started with ``spawn`` (or any other interpreter)
would otherwise look up its dictionaries under the sender's hashes.
"""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
import textwrap

from repro.model.atoms import Atom
from repro.model.terms import Constant, Variable
from repro.query.parser import parse_bsgf

TEXT = (
    'Z := SELECT (x, y) FROM R(x, y, 4, "a") '
    "WHERE S(x) AND (NOT T(y, 7) OR S(y));"
)

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _objects(query):
    """Every memo-key object of *query*, in a fixed order."""
    atoms = (query.guard, *query.conditional_atoms)
    return (*query.guard.variables, *atoms, *query.semijoin_specs(), query)


class TestIdentity:
    def test_parser_interns_variables(self):
        first, second = parse_bsgf(TEXT), parse_bsgf(TEXT)
        assert first.guard is not second.guard
        for a, b in zip(first.guard.terms, second.guard.terms):
            if isinstance(a, Variable):
                assert a is b

    def test_interned_variables_are_not_kept_alive(self):
        from repro.query import parser

        parse_bsgf("Z := SELECT qqfresh FROM R(qqfresh);")
        gc.collect()
        assert "qqfresh" not in parser._VARIABLES

    def test_hashes_are_lazy_and_equal_the_field_hashes(self):
        query = parse_bsgf(TEXT)
        (spec, *_) = query.semijoin_specs()
        x = Variable("x")
        objects = (query.guard, x, spec)
        assert all("_hash" not in vars(obj) for obj in objects)
        assert hash(x) == hash((x.name,))
        assert hash(query.guard) == hash((query.guard.relation, query.guard.terms))
        assert hash(spec) == hash(
            (spec.output, spec.guard, spec.conditional, spec.projection)
        )
        assert all("_hash" in vars(obj) for obj in objects)

    def test_equality_is_by_value(self):
        query = parse_bsgf(TEXT)
        fresh = Atom.of("R", "x", "y", 4, Constant("a"))
        assert query.guard == fresh and query.guard is not fresh
        assert query.guard != Atom.of("R", "x", "y", 4, Constant("b"))
        assert Variable("x") == query.guard.terms[0]
        assert query.guard != "R(x, y, 4, 'a')"

    def test_default_specs_are_shared_and_lists_fresh(self):
        query = parse_bsgf(TEXT)
        first, second = query.semijoin_specs(), query.semijoin_specs()
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert query.semijoin_specs() == second
        renamed = query.semijoin_specs(prefix="W")
        assert [s.output for s in renamed] == ["W#0", "W#1", "W#2"]


#: Unpickles the objects from stdin and checks them against freshly parsed
#: equal ones: equal hashes, and dict / set lookups both ways.
_CHECK = textwrap.dedent(
    """
    import pickle, sys
    from repro.query.parser import parse_bsgf
    from test_model_identity import TEXT, _objects

    shipped = pickle.load(sys.stdin.buffer)
    fresh = _objects(parse_bsgf(TEXT))
    assert len(shipped) == len(fresh)
    for old, new in zip(shipped, fresh):
        assert old == new and hash(old) == hash(new), (old, new)
    by_old = {obj: index for index, obj in enumerate(shipped)}
    by_new = {obj: index for index, obj in enumerate(fresh)}
    assert [by_old[obj] for obj in fresh] == list(range(len(fresh)))
    assert [by_new[obj] for obj in shipped] == list(range(len(fresh)))
    assert set(shipped) == set(fresh)
    specs = zip(shipped[-1].semijoin_specs(), fresh[-1].semijoin_specs())
    assert all(old.join_key == new.join_key for old, new in specs)
    print("ok", len(shipped))
    """
)


def test_pickles_carry_no_cached_hash_across_hash_seeds():
    query = parse_bsgf(TEXT)
    objects = _objects(query)
    for obj in objects:  # fill every cache before pickling
        hash(obj)
    for spec in query.semijoin_specs():
        spec.join_key
    for atom in objects:
        if isinstance(atom, Atom):
            atom.variable_set()
    data = pickle.dumps(objects)
    for cached in (b"_hash", b"_variable_set", b"join_key", b"_default_specs"):
        assert cached not in data
    tests = os.path.dirname(os.path.abspath(__file__))
    for seed in ("1", "4242"):
        env = dict(
            os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join((SRC, tests))
        )
        result = subprocess.run(
            [sys.executable, "-c", _CHECK],
            input=data,
            env=env,
            capture_output=True,
            check=False,
        )
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().split() == ["ok", str(len(objects))]
