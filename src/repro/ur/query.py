"""The end user's query language against the universal relation.

"To pose a query, the user simply points to a set of output attributes
and imposes conditions on some other attributes.  This is it: no joins,
sheer simplicity."

:class:`URQuery` is exactly that: output attributes plus a condition.
:func:`parse_query` accepts a small SELECT/WHERE notation (what a simple
form-based UI would generate)::

    SELECT make, model, price
    WHERE make = 'jaguar' AND year >= 1993 AND price < bb_price
      AND zip IN ('10001', '10025')

Conditions are conjunctive; ``IN`` expands to a disjunction of equalities.
Either side of a comparison may be an attribute, so value comparisons
across concepts (``price < bb_price``) work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WebBaseError
from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    Or,
    conj,
)


class QueryParseError(WebBaseError):
    """The query text is not well-formed."""


@dataclass(frozen=True)
class URQuery:
    """A universal-relation query: outputs + condition."""

    outputs: tuple[str, ...]
    condition: Condition | None = None

    def attributes(self) -> set[str]:
        """Every attribute the query mentions (outputs and conditions)."""
        mentioned = set(self.outputs)
        if self.condition is not None:
            mentioned |= self.condition.attributes()
        return mentioned


@dataclass
class _Tokens:
    items: list[str]
    pos: int = 0

    def peek(self) -> str | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> str:
        if self.pos >= len(self.items):
            raise QueryParseError("unexpected end of query")
        token = self.items[self.pos]
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got.upper() != token.upper():
            raise QueryParseError("expected %r, got %r" % (token, got))


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    symbols = ("<=", ">=", "!=", "<", ">", "=", ",", "(", ")")
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j == -1:
                raise QueryParseError("unterminated string literal")
            tokens.append(text[i : j + 1])
            i = j + 1
            continue
        matched = False
        for sym in symbols:
            if text.startswith(sym, i):
                tokens.append(sym)
                i += len(sym)
                matched = True
                break
        if matched:
            continue
        j = i
        while j < n and (text[j].isalnum() or text[j] in "_."):
            j += 1
        if j == i:
            raise QueryParseError("unexpected character %r" % ch)
        tokens.append(text[i:j])
        i = j
    return tokens


def _operand(token: str):
    if token.startswith("'"):
        return Const(token[1:-1])
    try:
        return Const(int(token))
    except ValueError:
        pass
    try:
        return Const(float(token))
    except ValueError:
        pass
    return Attr(token.lower())


def _parse_predicate(tokens: _Tokens) -> Condition:
    left_token = tokens.next()
    op = tokens.next()
    if op.upper() == "IN":
        tokens.expect("(")
        attr = left_token.lower()
        choices = []
        while True:
            value = _operand(tokens.next())
            if isinstance(value, Attr):
                raise QueryParseError("IN list must contain constants")
            choices.append(Comparison(Attr(attr), "=", value))
            nxt = tokens.next()
            if nxt == ")":
                break
            if nxt != ",":
                raise QueryParseError("expected ',' or ')' in IN list")
        return Or(tuple(choices)) if len(choices) > 1 else choices[0]
    if op not in ("=", "!=", "<", "<=", ">", ">="):
        raise QueryParseError("unknown operator %r" % op)
    right_token = tokens.next()
    return Comparison(_operand(left_token), op, _operand(right_token))


def parse_query(text: str) -> URQuery:
    """Parse ``SELECT a, b WHERE cond AND cond ...`` into a :class:`URQuery`."""
    tokens = _Tokens(_tokenize(text))
    tokens.expect("SELECT")
    outputs: list[str] = []
    while True:
        token = tokens.next().lower()
        if token in outputs:
            raise QueryParseError("attribute %r repeated in the SELECT list" % token)
        outputs.append(token)
        nxt = tokens.peek()
        if nxt == ",":
            tokens.next()
            continue
        break
    if not outputs:
        raise QueryParseError("empty SELECT list")
    condition: Condition | None = None
    if tokens.peek() is not None:
        tokens.expect("WHERE")
        parts = [_parse_predicate(tokens)]
        while tokens.peek() is not None:
            tokens.expect("AND")
            parts.append(_parse_predicate(tokens))
        condition = conj(*parts)
    return URQuery(tuple(outputs), condition)
