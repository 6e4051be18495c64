"""Minimal-type inference: the "schema as hint" rewrite (§4.1).

"We argue that schema type definitions should be treated as hints rather
than hard constraints. ... automated tools can infer true field types and
value distributions to modify internal field definitions and minimize
encoding waste."

Rules, in priority order (first match wins):

1. constant column        -> 0 bits (value lives in the catalog)
2. bool-like ints         -> BOOL, 1 bit packed
3. 14-char timestamp str  -> TIMESTAMP32 (the paper's 14 B -> 4 B example)
4. numeric strings        -> narrowest int for the parsed range
5. year-only granularity  -> YEAR16 for timestamp-family columns when the
                             application is known to ask only for years
6. integer family         -> narrowest ladder type covering [min, max];
                             sub-byte ``recommended_bits`` reported for
                             bit-packing (the "8, or even 4 bits" case)
7. low cardinality        -> dictionary code of ceil(log2(distinct)) bits
8. strings                -> CHAR(max length observed)
9. otherwise              -> keep the declared type

``recommended_bits`` is the honest per-value cost (possibly fractional
bytes); ``recommended`` is the narrowest *fixed-width* physical type for
row-store layouts, which is what :func:`optimize_schema` rewrites to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.encoding.analyzer import ColumnProfile
from repro.errors import SchemaError
from repro.schema.schema import Schema
from repro.schema.types import (
    BOOL,
    PhysicalType,
    SIGNED_INT_LADDER,
    TIMESTAMP32,
    TypeKind,
    UNSIGNED_INT_LADDER,
    YEAR16,
    char,
)
from repro.util.bitpack import bits_required

#: Cardinality ceiling for recommending a dictionary code.
DICTIONARY_MAX_DISTINCT = 4096


@dataclass(frozen=True)
class TypeRecommendation:
    """The advisor's verdict for one column."""

    column: str
    declared: PhysicalType
    recommended: PhysicalType
    strategy: str
    declared_bits: int
    recommended_bits: float  # may be fractional (bit-packed / dictionary)

    @property
    def waste_fraction(self) -> float:
        """Fraction of the declared bits that carry no information."""
        if self.declared_bits == 0:
            return 0.0
        return max(0.0, 1.0 - self.recommended_bits / self.declared_bits)


def _narrowest_int(lo: int, hi: int) -> PhysicalType:
    """Narrowest ladder type covering the closed range [lo, hi]."""
    if lo >= 0:
        for ptype in UNSIGNED_INT_LADDER:
            if hi <= ptype.int_range()[1]:
                return ptype
    for ptype in SIGNED_INT_LADDER:
        rlo, rhi = ptype.int_range()
        if rlo <= lo and hi <= rhi:
            return ptype
    raise SchemaError(f"no integer type covers [{lo}, {hi}]")


def infer_column_type(
    profile: ColumnProfile,
    granularity: str | None = None,
) -> TypeRecommendation:
    """Apply the rule chain to one column profile.

    Args:
        profile: from :func:`repro.core.encoding.analyzer.profile_column`.
        granularity: semantic hint about what the application actually
            reads from this column; currently only ``"year"`` is
            meaningful (the paper's "storing full timestamps when the
            application only requests years").
    """
    declared = profile.declared
    declared_bits = declared.size * 8
    kind = declared.kind

    def rec(recommended: PhysicalType, strategy: str, bits: float) -> TypeRecommendation:
        return TypeRecommendation(
            column=profile.name,
            declared=declared,
            recommended=recommended,
            strategy=strategy,
            declared_bits=declared_bits,
            recommended_bits=bits,
        )

    if profile.is_constant:
        return rec(declared, "constant", 0.0)

    if profile.bool_like and kind in (TypeKind.INT, TypeKind.UINT):
        return rec(BOOL, "bool", 1.0)

    # The semantic-granularity hint outranks representation rewrites: if
    # the application only ever asks for years, even a perfectly packed
    # timestamp still stores 16 unwanted bits.
    if granularity == "year" and (
        kind in (TypeKind.TIMESTAMP, TypeKind.DATE, TypeKind.TIMESTAMP_STRING)
        or profile.all_timestamp14_strings
    ):
        return rec(YEAR16, "year_granularity", 16.0)

    if profile.all_timestamp14_strings:
        return rec(TIMESTAMP32, "timestamp_pack", 32.0)

    if profile.all_numeric_strings:
        assert profile.numeric_min is not None and profile.numeric_max is not None
        ptype = _narrowest_int(profile.numeric_min, profile.numeric_max)
        span_bits = _int_bits(profile.numeric_min, profile.numeric_max)
        return rec(ptype, "numeric_string", span_bits)

    if kind in (TypeKind.INT, TypeKind.UINT, TypeKind.TIMESTAMP,
                TypeKind.DATE, TypeKind.YEAR):
        assert profile.min_int is not None and profile.max_int is not None
        ptype = _narrowest_int(profile.min_int, profile.max_int)
        span_bits = _int_bits(profile.min_int, profile.max_int)
        dict_bits = _dictionary_bits(profile)
        if dict_bits is not None and dict_bits < min(span_bits, ptype.size * 8):
            return rec(ptype, "dictionary", dict_bits)
        if span_bits <= 8 and span_bits < declared_bits:
            # The paper's "easily be encoded in 8, or even 4 bits" case:
            # genuinely small value ranges get bit-packed.
            return rec(ptype, "bitpack_int", span_bits)
        if ptype.size < declared.size:
            # Wide ranges get the narrowest fixed type (a "simple
            # technique"); offset bit-packing would go further but is no
            # longer byte-addressable.
            return rec(ptype, "narrow_int", float(ptype.size * 8))
        return rec(declared, "keep", float(declared_bits))

    if kind in (TypeKind.CHAR, TypeKind.VARCHAR, TypeKind.TIMESTAMP_STRING):
        dict_bits = _dictionary_bits(profile)
        trimmed = char(max(1, profile.max_strlen))
        trimmed_bits = trimmed.size * 8.0
        if dict_bits is not None and dict_bits < trimmed_bits:
            return rec(trimmed, "dictionary", dict_bits)
        if trimmed.size < declared.size:
            return rec(trimmed, "char_trim", trimmed_bits)
        return rec(declared, "keep", float(declared_bits))

    return rec(declared, "keep", float(declared_bits))


def _int_bits(lo: int, hi: int) -> float:
    """Bits per value to represent the observed closed range.

    Offset (frame-of-reference) encoding: ``value - lo`` needs
    ``bits_required(hi - lo)`` bits.
    """
    return float(bits_required(max(0, hi - lo)))


def _dictionary_bits(profile: ColumnProfile) -> float | None:
    """Per-value bits for a dictionary code, or None when inapplicable.

    Amortises the dictionary blob over the rows: codes cost
    ``ceil(log2(d))`` bits, plus ``d × declared_size`` bytes of dictionary
    spread across ``count`` values.
    """
    if profile.distinct_capped or profile.distinct_count > DICTIONARY_MAX_DISTINCT:
        return None
    d = profile.distinct_count
    if d <= 1:
        return 0.0
    code_bits = math.ceil(math.log2(d))
    dict_overhead_bits = d * profile.declared.size * 8 / profile.count
    return code_bits + dict_overhead_bits


def optimize_schema(
    schema: Schema,
    column_values: dict[str, list[object]],
    granularities: dict[str, str] | None = None,
) -> tuple[Schema, list[TypeRecommendation]]:
    """Rewrite a schema's stored types from observed data.

    Returns the physically-optimized schema (declared types preserved as
    hints, see :meth:`repro.schema.schema.Schema.with_stored_types`) and
    the per-column recommendations that justify it.
    """
    from repro.core.encoding.analyzer import profile_column

    granularities = granularities or {}
    recommendations: list[TypeRecommendation] = []
    stored: dict[str, PhysicalType] = {}
    for column in schema.columns:
        values = column_values.get(column.name)
        if not values:
            continue
        profile = profile_column(column.name, column.declared_type, values)
        recommendation = infer_column_type(
            profile, granularity=granularities.get(column.name)
        )
        recommendations.append(recommendation)
        if recommendation.recommended != column.declared_type:
            stored[column.name] = recommendation.recommended
    return schema.with_stored_types(stored), recommendations
