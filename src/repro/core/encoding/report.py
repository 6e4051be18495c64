"""Waste reporting (§4.1's 16%–83% analysis).

Turns per-column :class:`TypeRecommendation`\\ s into the table- and
database-level accounting the paper reports: declared bytes vs minimal
bytes, per-column and per-table waste fractions, and the database total
("over 23.5 GB (20%) of waste in the tables we inspected").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encoding.analyzer import profile_column
from repro.core.encoding.inference import TypeRecommendation, infer_column_type
from repro.errors import SchemaError
from repro.schema.schema import Schema
from repro.util.units import fmt_bytes


@dataclass(frozen=True)
class ColumnWaste:
    """Space accounting for one column across all rows."""

    name: str
    declared_type: str
    recommended_type: str
    strategy: str
    rows: int
    declared_bytes: float
    optimal_bytes: float

    @property
    def waste_bytes(self) -> float:
        return max(0.0, self.declared_bytes - self.optimal_bytes)

    @property
    def waste_fraction(self) -> float:
        if self.declared_bytes == 0:
            return 0.0
        return self.waste_bytes / self.declared_bytes


@dataclass(frozen=True)
class TableWasteReport:
    """Space accounting for one table."""

    table: str
    rows: int
    columns: tuple[ColumnWaste, ...]

    @property
    def declared_bytes(self) -> float:
        return sum(c.declared_bytes for c in self.columns)

    @property
    def optimal_bytes(self) -> float:
        return sum(c.optimal_bytes for c in self.columns)

    @property
    def waste_bytes(self) -> float:
        return max(0.0, self.declared_bytes - self.optimal_bytes)

    @property
    def waste_fraction(self) -> float:
        if self.declared_bytes == 0:
            return 0.0
        return self.waste_bytes / self.declared_bytes


def analyze_table_waste(
    table: str,
    schema: Schema,
    column_values: dict[str, list[object]],
) -> TableWasteReport:
    """Profile every provided column and produce the table's waste report.

    ``column_values`` maps column name to the full value list; every column
    must have the same row count.
    """
    rows = None
    wastes: list[ColumnWaste] = []
    for column in schema.columns:
        values = column_values.get(column.name)
        if values is None:
            continue
        if rows is None:
            rows = len(values)
        elif len(values) != rows:
            raise SchemaError(
                f"column {column.name!r} has {len(values)} values, "
                f"expected {rows}"
            )
        profile = profile_column(column.name, column.declared_type, values)
        recommendation = infer_column_type(profile)
        wastes.append(_column_waste(recommendation, len(values)))
    if rows is None:
        raise SchemaError(f"no column values provided for table {table!r}")
    return TableWasteReport(table=table, rows=rows, columns=tuple(wastes))


def _column_waste(rec: TypeRecommendation, rows: int) -> ColumnWaste:
    return ColumnWaste(
        name=rec.column,
        declared_type=rec.declared.name,
        recommended_type=rec.recommended.name,
        strategy=rec.strategy,
        rows=rows,
        declared_bytes=rows * rec.declared_bits / 8.0,
        optimal_bytes=rows * rec.recommended_bits / 8.0,
    )


def database_waste_fraction(reports: list[TableWasteReport]) -> float:
    """Database-wide waste fraction across multiple table reports."""
    declared = sum(r.declared_bytes for r in reports)
    waste = sum(r.waste_bytes for r in reports)
    return waste / declared if declared else 0.0


def format_waste_report(report: TableWasteReport) -> str:
    """Render a report as the fixed-width table the benchmarks print."""
    lines = [
        f"table {report.table}  ({report.rows} rows): "
        f"{fmt_bytes(report.declared_bytes)} declared, "
        f"{fmt_bytes(report.optimal_bytes)} minimal, "
        f"{report.waste_fraction:.0%} waste",
        f"  {'column':<16} {'declared':<16} {'recommended':<16} "
        f"{'strategy':<16} {'waste':>6}",
    ]
    for col in report.columns:
        lines.append(
            f"  {col.name:<16} {col.declared_type:<16} "
            f"{col.recommended_type:<16} {col.strategy:<16} "
            f"{col.waste_fraction:>6.0%}"
        )
    return "\n".join(lines)
