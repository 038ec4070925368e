"""Terms of the SGF query language: variables and constants.

The paper (Section 3.1) assumes a fixed infinite set ``D`` of data values and
a fixed infinite set ``V`` of variables, disjoint from ``D``.  A *term* is
either a data value (constant) or a variable.  Atoms are built from a relation
symbol and a vector of terms (see :mod:`repro.model.atoms`).

This module provides small immutable value classes for both kinds of terms,
plus helpers to coerce plain Python values into terms.  Constants wrap
arbitrary hashable Python values (ints and strings in practice); variables are
identified by their name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union


class computed_once:
    """A read-only attribute computed on first access and then kept in the
    instance ``__dict__``, which a frozen dataclass still has.

    :func:`functools.cached_property` without the lock it takes on every
    first access before Python 3.12: threads racing on a first access each
    compute the same immutable value, and either result stays.  The query
    terms, atoms, specs and queries that cache their hash this way rebuild
    from their fields in ``__reduce__``, so no cached value is pickled: a
    hash holds only in the process, and under the ``PYTHONHASHSEED``, that
    computed it.
    """

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.name = func.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable such as ``x`` or ``y1``.

    Variables compare and hash by name, so two ``Variable("x")`` instances are
    interchangeable.  Names must be non-empty strings.  Equality tests
    identity first and the hash is computed once, on first use (the parser
    interns variables, so equal variables are usually the same object).
    """

    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("variable name must be a non-empty string")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    @computed_once
    def _hash(self) -> int:
        return hash((self.name,))

    def __reduce__(self):
        return (self.__class__, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, order=True)
class Constant:
    """A data value appearing in a query, e.g. the ``4`` in ``R(x, y, 4)``.

    The wrapped value may be any hashable Python object; equality is value
    equality of the wrapped objects.
    """

    value: object

    def __str__(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


#: A term is either a variable or a constant.
Term = Union[Variable, Constant]


def is_variable(term: object) -> bool:
    """Return ``True`` if *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: object) -> bool:
    """Return ``True`` if *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def as_term(value: object) -> Term:
    """Coerce *value* into a :class:`Term`.

    Strings are treated as variable names when they are valid Python
    identifiers starting with a lowercase letter (the convention used
    throughout the paper, e.g. ``x``, ``y1``, ``aut``); everything else is
    wrapped as a :class:`Constant`.  Existing terms are returned unchanged.

    This is a convenience used by the programmatic query-construction API;
    the parser (:mod:`repro.query.parser`) makes the distinction explicitly
    from the concrete syntax instead.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value.isidentifier() and value[0].islower():
        return Variable(value)
    return Constant(value)


def variables_in(terms) -> tuple:
    """Return the tuple of distinct variables occurring in *terms*, in order."""
    seen = []
    for term in terms:
        if isinstance(term, Variable) and term not in seen:
            seen.append(term)
    return tuple(seen)
