"""Row/table store with simple filtered queries (MySQL substitute)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.network.packet import estimate_size


@dataclass
class Row:
    """One row: a primary key plus a column dictionary."""

    key: Any
    columns: Dict[str, Any] = field(default_factory=dict)

    def get(self, column: str, default: Any = None) -> Any:
        return self.columns.get(column, default)


class Table:
    """A single named table.

    An upsert or delete gives back what the row was charged at its last
    upsert: callers hold the :class:`Row` objects and may mutate them.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.rows: Dict[Any, Row] = {}
        self._charged: Dict[Any, int] = {}
        self.bytes_stored = 0

    def upsert(self, key: Any, columns: Dict[str, Any]) -> Row:
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = Row(key=key, columns=dict(columns))
        else:
            row.columns.update(columns)
        size = estimate_size(row.columns)
        self.bytes_stored += size - self._charged.get(key, 0)
        self._charged[key] = size
        return row

    def get(self, key: Any) -> Optional[Row]:
        return self.rows.get(key)

    def delete(self, key: Any) -> bool:
        row = self.rows.pop(key, None)
        if row is not None:
            self.bytes_stored -= self._charged.pop(key)
            return True
        return False

    def select(
        self,
        where: Optional[Callable[[Row], bool]] = None,
        order_by: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> List[Row]:
        rows = list(self.rows.values())
        if where is not None:
            rows = [row for row in rows if where(row)]
        if order_by is not None:
            rows.sort(key=lambda row: row.get(order_by), reverse=descending)
        if limit is not None:
            rows = rows[:limit]
        return rows

    def count(self, where: Optional[Callable[[Row], bool]] = None) -> int:
        if where is None:
            return len(self.rows)
        return sum(1 for row in self.rows.values() if where(row))

    def __len__(self) -> int:
        return len(self.rows)


class TableStore:
    """A collection of named tables."""

    def __init__(self, name: str = "tablestore") -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}
        self.operations = 0

    def table(self, name: str) -> Table:
        """Get (creating if necessary) a table."""
        if name not in self.tables:
            self.tables[name] = Table(name)
        return self.tables[name]

    def upsert(self, table: str, key: Any, columns: Dict[str, Any]) -> Row:
        self.operations += 1
        return self.table(table).upsert(key, columns)

    def get(self, table: str, key: Any) -> Optional[Row]:
        self.operations += 1
        return self.table(table).get(key)

    def select(self, table: str, **kwargs) -> List[Row]:
        self.operations += 1
        return self.table(table).select(**kwargs)

    def delete(self, table: str, key: Any) -> bool:
        self.operations += 1
        return self.table(table).delete(key)

    @property
    def bytes_stored(self) -> int:
        return sum(table.bytes_stored for table in self.tables.values())

    def table_names(self) -> List[str]:
        return sorted(self.tables)
