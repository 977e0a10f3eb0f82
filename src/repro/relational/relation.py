"""Relations: schemas plus tuples, with the core operators.

Relations use set semantics (duplicate rows are removed) and keep their
rows in a deterministic sorted order so results are stable across runs —
a requirement for the reproducibility of every benchmark table.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.relational.schema import Schema, SchemaError

Row = tuple  # one tuple of values, positionally matching the schema
RowDict = dict[str, Any]


def _sort_key(row: Row) -> tuple:
    """A total order over heterogeneous rows (ints, floats, strings, None)."""
    return tuple([(type(v).__name__, repr(v)) for v in row])


class Relation:
    """An immutable relation instance."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema | Iterable[str], rows: Iterable[Row] = ()) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        width = len(schema)
        deduped = set()
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise SchemaError(
                    "row %r does not match schema %r" % (row, schema)
                )
            deduped.add(row)
        self.rows: tuple[Row, ...] = tuple(sorted(deduped, key=_sort_key))

    # -- construction ---------------------------------------------------------

    @classmethod
    def _ordered(cls, schema: Schema, rows: tuple[Row, ...]) -> "Relation":
        """A relation over rows that are already distinct and in order —
        an in-order subset of another relation's rows, which keeps both
        properties — without deduplicating and sorting them again."""
        relation = cls.__new__(cls)
        relation.schema = schema
        relation.rows = rows
        return relation

    @classmethod
    def from_dicts(cls, schema: Schema | Iterable[str], dicts: Iterable[RowDict]) -> "Relation":
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        rows = [tuple(d[a] for a in schema) for d in dicts]
        return cls(schema, rows)

    # -- basics -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema != other.schema:
            return False
        if self.schema.attrs == other.schema.attrs:
            return self.rows == other.rows
        # Same attribute set, different order: compare re-ordered.
        return set(self.to_dict_tuples()) == set(other.to_dict_tuples())

    def __hash__(self) -> int:
        return hash((self.schema, frozenset(self.to_dict_tuples())))

    def __repr__(self) -> str:
        return "Relation(%s, %d rows)" % (", ".join(self.schema), len(self))

    def to_dicts(self) -> list[RowDict]:
        attrs = self.schema.attrs
        return [dict(zip(attrs, row)) for row in self.rows]

    def to_dict_tuples(self) -> list[tuple[tuple[str, Any], ...]]:
        attrs = sorted(self.schema.attrs)
        index = {a: self.schema.index_of(a) for a in attrs}
        return [tuple((a, row[index[a]]) for a in attrs) for row in self.rows]

    def row_dict(self, row: Row) -> RowDict:
        return dict(zip(self.schema.attrs, row))

    @property
    def is_empty(self) -> bool:
        return not self.rows

    # -- operators ----------------------------------------------------------------

    def select(self, predicate: Callable[[RowDict], bool]) -> "Relation":
        attrs = self.schema.attrs
        kept = tuple(row for row in self.rows if predicate(dict(zip(attrs, row))))
        return Relation._ordered(self.schema, kept)

    def project(self, attrs: Iterable[str]) -> "Relation":
        target = self.schema.project(attrs)
        if target.attrs == self.schema.attrs:
            return Relation._ordered(target, self.rows)
        indices = [self.schema.index_of(a) for a in target]
        return Relation(target, [tuple(row[i] for i in indices) for row in self.rows])

    def rename(self, mapping: dict[str, str]) -> "Relation":
        return Relation._ordered(self.schema.rename(mapping), self.rows)

    def derive(self, attr: str, fn: Callable[[RowDict], Any]) -> "Relation":
        """Add (or replace) ``attr`` computed from each row."""
        attrs = self.schema.attrs
        if attr in self.schema:
            idx = self.schema.index_of(attr)
            rows = []
            for row in self.rows:
                value = fn(dict(zip(attrs, row)))
                rows.append(row[:idx] + (value,) + row[idx + 1 :])
            return Relation(self.schema, rows)
        target = Schema(attrs + (attr,))
        rows = [row + (fn(dict(zip(attrs, row))),) for row in self.rows]
        return Relation(target, rows)

    def union(self, other: "Relation") -> "Relation":
        if self.schema != other.schema:
            raise SchemaError(
                "union schema mismatch: %r vs %r" % (self.schema, other.schema)
            )
        aligned = other._aligned_to(self.schema)
        return Relation(self.schema, self.rows + aligned)

    def intersect(self, other: "Relation") -> "Relation":
        if self.schema != other.schema:
            raise SchemaError(
                "intersect schema mismatch: %r vs %r" % (self.schema, other.schema)
            )
        mine = set(self.rows)
        return Relation(self.schema, [r for r in other._aligned_to(self.schema) if r in mine])

    def difference(self, other: "Relation") -> "Relation":
        if self.schema != other.schema:
            raise SchemaError(
                "difference schema mismatch: %r vs %r" % (self.schema, other.schema)
            )
        theirs = set(other._aligned_to(self.schema))
        return Relation._ordered(
            self.schema, tuple(r for r in self.rows if r not in theirs)
        )

    def _aligned_to(self, schema: Schema) -> tuple[Row, ...]:
        """Rows re-ordered to match ``schema``'s attribute order."""
        if self.schema.attrs == schema.attrs:
            return self.rows
        indices = [self.schema.index_of(a) for a in schema]
        return tuple(tuple(row[i] for i in indices) for row in self.rows)

    def natural_join(self, other: "Relation") -> "Relation":
        common = sorted(self.schema.common(other.schema))
        target = self.schema.union(other.schema)
        left_idx = [self.schema.index_of(a) for a in common]
        right_idx = [other.schema.index_of(a) for a in common]
        right_extra = [a for a in other.schema if a not in self.schema]
        right_extra_idx = [other.schema.index_of(a) for a in right_extra]

        # Hash join on the common attributes.
        buckets: dict[tuple, list[Row]] = {}
        for row in other.rows:
            buckets.setdefault(tuple(row[i] for i in right_idx), []).append(row)
        joined = []
        for row in self.rows:
            key = tuple(row[i] for i in left_idx)
            for match in buckets.get(key, ()):
                joined.append(row + tuple(match[i] for i in right_extra_idx))
        return Relation(target, joined)

    def distinct_values(self, attrs: Iterable[str]) -> list[tuple]:
        """Distinct value combinations of ``attrs``, sorted."""
        indices = [self.schema.index_of(a) for a in attrs]
        values = {tuple(row[i] for i in indices) for row in self.rows}
        return sorted(values, key=_sort_key)

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width text rendering (for examples and benchmark output)."""
        attrs = list(self.schema.attrs)
        shown = [[str(v) for v in row] for row in self.rows[:limit]]
        widths = [len(a) for a in attrs]
        for row in shown:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(a.ljust(widths[i]) for i, a in enumerate(attrs))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in shown:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if len(self.rows) > limit:
            lines.append("... (%d more rows)" % (len(self.rows) - limit))
        return "\n".join(lines)
