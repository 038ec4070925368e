"""Parser for the paper's SQL-like concrete syntax of (B)SGF queries.

Grammar (informal)::

    program     := statement+
    statement   := NAME ':=' 'SELECT' select_list 'FROM' atom ['WHERE' cond] ';'
    select_list := variable | '(' variable (',' variable)* ')'
    cond        := or_expr
    or_expr     := and_expr ('OR' and_expr)*
    and_expr    := not_expr ('AND' not_expr)*
    not_expr    := 'NOT' not_expr | '(' cond ')' | atom
    atom        := NAME '(' term (',' term)* ')'
    term        := variable | number | string
    variable    := identifier starting with a lowercase letter
    NAME        := identifier (relation names conventionally start uppercase)

Examples accepted verbatim from the paper::

    Z5 := SELECT (x, y) FROM R(x, y, 4)
          WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));

    Z1 := SELECT aut FROM Amaz(ttl, aut, "bad")
          WHERE BN(ttl, aut, "bad") AND BD(ttl, aut, "bad");

The parser produces :class:`~repro.query.bsgf.BSGFQuery` /
:class:`~repro.query.sgf.SGFQuery` objects and therefore applies all
guardedness validation on construction.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..model.atoms import Atom
from ..model.terms import Constant, Term, Variable
from .bsgf import BSGFQuery
from .conditions import And, AtomCondition, Condition, Not, Or, TRUE
from .sgf import SGFQuery


class ParseError(ValueError):
    """Raised on any lexical or syntactic error, with position information."""

    def __init__(self, message: str, position: int, text: str) -> None:
        line = text.count("\n", 0, position) + 1
        column = position - (text.rfind("\n", 0, position) + 1) + 1
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    position: int


_TOKEN_SPEC = [
    ("WS", r"\s+"),
    ("COMMENT", r"--[^\n]*"),
    ("ASSIGN", r":="),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("COMMA", r","),
    ("SEMI", r";"),
    ("STRING", r'"[^"]*"|\'[^\']*\''),
    ("NUMBER", r"-?\d+(\.\d+)?"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
]

_TOKEN_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC)
)

_KEYWORDS = {"SELECT", "FROM", "WHERE", "AND", "OR", "NOT"}

#: Interned variables: every parse hands out one object per live name, so
#: term tuples compare by identity.  Weak values bound the table by the
#: variables still referenced somewhere.
_VARIABLES: "weakref.WeakValueDictionary[str, Variable]" = (
    weakref.WeakValueDictionary()
)


def _variable(name: str) -> Variable:
    variable = _VARIABLES.get(name)
    if variable is None:
        variable = _VARIABLES[name] = Variable(name)
    return variable


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r}", position, text)
        kind = match.lastgroup or ""
        value = match.group()
        if kind not in ("WS", "COMMENT"):
            if kind == "IDENT" and value.upper() in _KEYWORDS:
                kind = value.upper()
            tokens.append(_Token(kind, value, position))
        position = match.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers -------------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.kind} {token.value!r}",
                token.position,
                self.text,
            )
        return self._advance()

    def _accept(self, kind: str) -> Optional[_Token]:
        if self._peek().kind == kind:
            return self._advance()
        return None

    # -- grammar ----------------------------------------------------------------

    def parse_program(self) -> List[BSGFQuery]:
        statements: List[BSGFQuery] = []
        while self._peek().kind != "EOF":
            statements.append(self.parse_statement())
        if not statements:
            raise ParseError("empty query program", 0, self.text)
        return statements

    def parse_statement(self) -> BSGFQuery:
        output = self._expect("IDENT").value
        self._expect("ASSIGN")
        self._expect("SELECT")
        projection = self._parse_select_list()
        self._expect("FROM")
        guard = self._parse_atom()
        condition: Condition = TRUE
        if self._accept("WHERE"):
            condition = self._parse_or()
        self._expect("SEMI")
        return BSGFQuery(output, projection, guard, condition)

    def _parse_select_list(self) -> Tuple[Variable, ...]:
        variables: List[Variable] = []
        if self._accept("LPAREN"):
            variables.append(self._parse_variable())
            while self._accept("COMMA"):
                variables.append(self._parse_variable())
            self._expect("RPAREN")
        else:
            variables.append(self._parse_variable())
            while self._accept("COMMA"):
                variables.append(self._parse_variable())
        return tuple(variables)

    def _parse_variable(self) -> Variable:
        token = self._expect("IDENT")
        if not token.value[0].islower():
            raise ParseError(
                f"expected a variable (lowercase identifier), found {token.value!r}",
                token.position,
                self.text,
            )
        return _variable(token.value)

    def _parse_or(self) -> Condition:
        left = self._parse_and()
        while self._accept("OR"):
            right = self._parse_and()
            left = Or(left, right)
        return left

    def _parse_and(self) -> Condition:
        left = self._parse_not()
        while self._accept("AND"):
            right = self._parse_not()
            left = And(left, right)
        return left

    def _parse_not(self) -> Condition:
        if self._accept("NOT"):
            return Not(self._parse_not())
        if self._peek().kind == "LPAREN":
            # Could be a parenthesised condition; atoms always start with IDENT.
            self._expect("LPAREN")
            inner = self._parse_or()
            self._expect("RPAREN")
            return inner
        atom = self._parse_atom()
        return AtomCondition(atom)

    def _parse_atom(self) -> Atom:
        name_token = self._expect("IDENT")
        self._expect("LPAREN")
        terms: List[Term] = [self._parse_term()]
        while self._accept("COMMA"):
            terms.append(self._parse_term())
        self._expect("RPAREN")
        return Atom(name_token.value, tuple(terms))

    def _parse_term(self) -> Term:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            value: Union[int, float] = (
                float(token.value) if "." in token.value else int(token.value)
            )
            return Constant(value)
        if token.kind == "STRING":
            self._advance()
            return Constant(token.value[1:-1])
        if token.kind == "IDENT":
            self._advance()
            if token.value[0].islower():
                return _variable(token.value)
            # Uppercase identifiers in term position are treated as string constants
            # (e.g. named data values); the paper uses quoted strings for these but
            # accepting bare names is convenient.
            return Constant(token.value)
        raise ParseError(
            f"expected a term, found {token.kind} {token.value!r}",
            token.position,
            self.text,
        )


def parse_bsgf(text: str) -> BSGFQuery:
    """Parse a single BSGF statement."""
    parser = _Parser(text)
    statements = parser.parse_program()
    if len(statements) != 1:
        raise ParseError(
            f"expected exactly one statement, found {len(statements)}", 0, text
        )
    return statements[0]


def parse_sgf(text: str, name: str = "Q") -> SGFQuery:
    """Parse a sequence of BSGF statements into an SGF query."""
    parser = _Parser(text)
    statements = parser.parse_program()
    return SGFQuery(tuple(statements), name=name)


def parse_atom(text: str) -> Atom:
    """Parse a standalone atom such as ``R(x, y, 4)``."""
    parser = _Parser(text)
    atom = parser._parse_atom()
    parser._expect("EOF")
    return atom


def parse_condition(text: str) -> Condition:
    """Parse a standalone Boolean condition such as ``S(x) AND NOT T(y)``."""
    parser = _Parser(text)
    condition = parser._parse_or()
    parser._expect("EOF")
    return condition
