"""Linking-rod feature schema: spec validation, triplets, canonical text.

The schema (entities, attributes, enumerated values) lives in a JSON data
file shipped with the package; every function here reads it through
`default_schema()`. That file is program data, not input: it is read as it
is, and a test holds its contract (normalized names, values on every
structure attribute, resolvable `requires` and hole pairs). The checks here
are on what callers pass: specs and description texts.
"""

from __future__ import annotations

import enum
import json
import re
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import groupby
from typing import NamedTuple

from .errors import ParseError, ParseWarning, SpecError

RELATION = "structural feature"

_SENTENCE_RE = re.compile(r"^the\s+(.+?)\s+of\s+the\s+(.+?)\s+is\s+(.+)$")


class SizeClass(enum.IntEnum):
    """Quantized magnitude of a dimensional attribute, small < medium < large."""

    SMALL = 0
    MEDIUM = 1
    LARGE = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "SizeClass":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown size class {label!r}") from None


def _norm(name: str) -> str:
    return " ".join(name.lower().split())


def _as_class(value) -> SizeClass:
    if isinstance(value, str):
        return SizeClass.from_label(value)
    return SizeClass(value)


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str  # "structure" | "size"
    values: tuple[str, ...]
    optional: bool
    # (other attribute name, allowed values); attribute applies only when met
    requires: tuple[tuple[str, tuple[str, ...]], ...]

    def applies(self, structure_assignments: dict[str, str]) -> bool:
        for attr, allowed in self.requires:
            if structure_assignments.get(attr) not in allowed:
                return False
        return True


@dataclass(frozen=True)
class Entity:
    name: str
    attributes: tuple[Attribute, ...]

    def attribute(self, name: str) -> Attribute | None:
        name = _norm(name)
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None


@dataclass(frozen=True)
class FeatureSchema:
    """Entity/attribute/value vocabulary of one part family."""

    root: str
    entities: tuple[Entity, ...]
    hole_pairs: tuple[tuple[str, tuple[str, str]], ...]

    def entity(self, name: str) -> Entity | None:
        name = _norm(name)
        for ent in self.entities:
            if ent.name == name:
                return ent
        return None

    @property
    def feature_entities(self) -> tuple[Entity, ...]:
        return tuple(e for e in self.entities if e.name != self.root)

    @property
    def hole_entity_names(self) -> frozenset[str]:
        return frozenset(n for _, pair in self.hole_pairs for n in pair)

    def hole_pair(self, names) -> tuple[str, tuple[str, str]] | None:
        """The (style, (a, b)) naming pair that `names` use: the first pair,
        in schema order, with both holes among them, failing that the first
        with one; None when they name no pivot hole."""
        names = set(names)
        named = [(style, pair) for style, pair in self.hole_pairs if names & set(pair)]
        full = [entry for entry in named if names >= set(entry[1])]
        return next(iter(full or named), None)


@lru_cache(maxsize=1)
def default_schema() -> FeatureSchema:
    """The shipped linking-rod schema (eight feature entities under the
    root), read as it is: the file's names are already normalized, and a
    test holds its contract."""
    text = resources.files("rodfind.data").joinpath("linking_rod_schema.json").read_text("utf-8")
    data = json.loads(text)
    entities = tuple(
        Entity(raw["name"], tuple(
            Attribute(a["name"], a["kind"], tuple(a.get("values", ())), a.get("optional", False),
                      tuple((k, tuple(vs)) for k, vs in a.get("requires", {}).items()))
            for a in raw["attributes"]))
        for raw in data["entities"])
    pairs = tuple((style, tuple(pair)) for style, pair in data["hole_pairs"].items())
    return FeatureSchema(data["root"], entities, pairs)


class FeatureTriplet(NamedTuple):
    subject: str
    predicate: str
    object: str


@dataclass
class LinkingRodSpec:
    """One rod's structure-class and size-class assignments, keyed by entity."""

    structure: dict[str, dict[str, str]] = field(default_factory=dict)
    sizes: dict[str, dict[str, SizeClass]] = field(default_factory=dict)

    def __post_init__(self):
        self.structure = {
            _norm(e): {_norm(a): _norm(v) for a, v in attrs.items()}
            for e, attrs in self.structure.items() if attrs}
        self.sizes = {
            _norm(e): {_norm(a): _as_class(v) for a, v in attrs.items()}
            for e, attrs in self.sizes.items() if attrs}

    def entity_names(self) -> list[str]:
        names = list(self.structure)
        names.extend(n for n in self.sizes if n not in self.structure)
        return names

    def structure_of(self, entity: str) -> dict[str, str]:
        return self.structure.get(_norm(entity), {})

    def size_of(self, entity: str, attr: str) -> SizeClass | None:
        return self.sizes.get(_norm(entity), {}).get(_norm(attr))


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def _resolve_violations(spec: LinkingRodSpec, schema: FeatureSchema) -> list[str]:
    """Check that every assignment names a schema attribute it is allowed to use."""
    out = []
    for ename in spec.entity_names():
        ent = schema.entity(ename)
        if ent is None:
            out.append(f"unknown entity {ename!r}")
            continue
        if ename == schema.root:
            out.append(f"root entity {ename!r} takes no assignments")
            continue
        struct = spec.structure.get(ename, {})
        for aname, value in struct.items():
            attr = ent.attribute(aname)
            if attr is None:
                out.append(f"{ename}: unknown attribute {aname!r}")
            elif attr.kind != "structure":
                out.append(f"{ename}.{aname}: size attribute assigned a structure value")
            elif value not in attr.values:
                out.append(f"{ename}.{aname}: unknown value {value!r}")
            elif not attr.applies(struct):
                out.append(f"{ename}.{aname}: not applicable to this structure")
        for aname in spec.sizes.get(ename, {}):
            attr = ent.attribute(aname)
            if attr is None:
                out.append(f"{ename}: unknown attribute {aname!r}")
            elif attr.kind != "size":
                out.append(f"{ename}.{aname}: structure attribute assigned a size class")
            elif not attr.applies(struct):
                out.append(f"{ename}.{aname}: not applicable to this structure")
    return out


def validate_spec(spec: LinkingRodSpec) -> ValidationReport:
    """Full validity gate: resolvability, completeness, and co-constraints.

    Violations are data, not exceptions; callers that need a hard gate raise
    SpecError themselves.
    """
    schema = default_schema()
    violations = _resolve_violations(spec, schema)

    # Mandatory attributes for each present entity.
    for ename in spec.entity_names():
        ent = schema.entity(ename)
        if ent is None or ename == schema.root:
            continue
        struct = spec.structure.get(ename, {})
        sizes = spec.sizes.get(ename, {})
        for attr in ent.attributes:
            if attr.optional or not attr.applies(struct):
                continue
            assigned = attr.name in struct if attr.kind == "structure" else attr.name in sizes
            if not assigned:
                violations.append(f"{ename}: missing mandatory attribute {attr.name!r}")

    # Co-constraints for the rod family (encoded rules, not schema data).
    for entity in ("link", "shaft"):
        if entity not in spec.entity_names():
            violations.append(f"missing mandatory entity: {entity}")
    present = [n for n in spec.entity_names() if n in schema.hole_entity_names]
    found = schema.hole_pair(present)
    if len(present) == 2 and set(found[1]) == set(present):
        style, (a, b) = found
        _check_hole_pair(spec, style, a, b, violations)
    elif len(present) == 1:
        a, b = found[1]
        violations.append(f"missing mandatory entity: {b if a == present[0] else a}")
    else:
        violations.append(
            "binary link requires exactly two pivot holes forming one naming pair, "
            f"found {present or 'none'}")

    return ValidationReport(not violations, violations)


def _check_hole_pair(spec, style, a, b, violations):
    """Rule: larger/smaller naming is used iff the inner diameters differ."""
    ia = spec.size_of(a, "inner diameter")
    ib = spec.size_of(b, "inner diameter")
    if ia is None or ib is None:
        return
    if style == "larger_smaller":
        if ia == ib:
            violations.append(
                "pivot holes have the same inner diameter but are named larger/smaller")
        elif ia < ib:
            violations.append(
                "larger pivot hole must have the larger inner diameter")
    else:
        if ia != ib:
            violations.append(
                f"pivot holes with different inner diameters must use "
                f"larger/smaller naming, not {a}/{b}")


def _require_resolvable(spec: LinkingRodSpec, schema: FeatureSchema):
    violations = _resolve_violations(spec, schema)
    if violations:
        raise SpecError("spec does not resolve against the schema", violations)


def _attribute_items(spec: LinkingRodSpec, schema: FeatureSchema):
    """Assigned attributes in canonical order (schema entity order, then
    schema attribute order)."""
    for ent in schema.entities:
        if ent.name == schema.root or ent.name not in spec.entity_names():
            continue
        struct = spec.structure.get(ent.name, {})
        sizes = spec.sizes.get(ent.name, {})
        for attr in ent.attributes:
            if attr.name in struct:
                yield ent.name, attr.name, struct[attr.name]
            elif attr.name in sizes:
                yield ent.name, attr.name, sizes[attr.name].label


def spec_to_triplets(spec: LinkingRodSpec) -> list[FeatureTriplet]:
    """Canonical triplet list: a structural-feature link per present entity
    plus one triplet per assigned attribute, in schema order. A resolvable
    spec assigns every entity it names at least one schema attribute, so
    the attribute items name every present entity."""
    schema = default_schema()
    _require_resolvable(spec, schema)
    triplets = []
    for entity, items in groupby(_attribute_items(spec, schema), key=lambda item: item[0]):
        triplets.append(FeatureTriplet(schema.root, RELATION, entity))
        triplets.extend(FeatureTriplet(*item) for item in items)
    return triplets


def render_text(spec: LinkingRodSpec) -> str:
    """Canonical description: one sentence per assigned attribute, pattern
    "the <attribute> of the <entity> is <value>", semicolon separated,
    first letter capitalized, final period."""
    schema = default_schema()
    _require_resolvable(spec, schema)
    sentences = [
        f"the {attr} of the {entity} is {value}"
        for entity, attr, value in _attribute_items(spec, schema)]
    if not sentences:
        raise SpecError("spec has no assigned attributes to describe")
    text = "; ".join(sentences) + "."
    return text[0].upper() + text[1:]


def _resolve_name(phrase: str, names: list[str], what: str) -> str:
    if phrase in names:
        return phrase
    suffix = [n for n in names if n.endswith(" " + phrase) or n == phrase]
    if len(suffix) == 1:
        return suffix[0]
    if len(suffix) > 1:
        raise ParseError(
            f"ambiguous {what} reference {phrase!r}: candidates {sorted(suffix)}")
    raise ParseError(f"unknown {what} {phrase!r}")


def parse_text(text: str, *, lenient: bool = False) -> LinkingRodSpec:
    """Inverse of render_text.

    Strict mode raises ParseError on the first unrecognizable sentence; in
    lenient mode such sentences are skipped with a ParseWarning and every
    recognized sentence is still applied.  A text with no recognizable
    sentence is an error in both modes.
    """
    schema = default_schema()
    structure: dict[str, dict[str, str]] = {}
    sizes: dict[str, dict[str, SizeClass]] = {}
    recognized = 0

    sentences = [s.strip() for s in _norm(text).rstrip(".").split(";")]
    sentences = [s for s in sentences if s]
    for sentence in sentences:
        try:
            _apply_sentence(sentence, schema, structure, sizes)
        except ParseError as exc:
            if not lenient:
                raise
            warnings.warn(ParseWarning(f"skipped sentence {sentence!r}: {exc}"))
        else:
            recognized += 1
    if recognized == 0:
        raise ParseError("no recognizable sentence in description")
    return LinkingRodSpec(structure, sizes)


def _apply_sentence(sentence, schema, structure, sizes):
    m = _SENTENCE_RE.match(sentence)
    if m is None:
        raise ParseError('sentence does not match "the <attribute> of the <entity> is <value>"')
    attr_phrase, entity_phrase, value = (g.strip() for g in m.groups())

    entity_name = _resolve_name(entity_phrase, [e.name for e in schema.entities], "entity")
    if entity_name == schema.root:
        raise ParseError(f"root entity {entity_name!r} takes no attributes")
    ent = schema.entity(entity_name)
    attr_name = _resolve_name(attr_phrase, [a.name for a in ent.attributes], "attribute")
    attr = ent.attribute(attr_name)

    if attr.kind == "size":
        try:
            parsed = SizeClass.from_label(value)
        except ValueError:
            raise ParseError(
                f"{entity_name}.{attr_name}: {value!r} is not a size class") from None
        bucket = sizes.setdefault(entity_name, {})
    else:
        if value not in attr.values:
            raise ParseError(f"{entity_name}.{attr_name}: unknown value {value!r}")
        parsed = value
        bucket = structure.setdefault(entity_name, {})

    if attr_name in bucket and bucket[attr_name] != parsed:
        raise ParseError(
            f"{entity_name}.{attr_name} assigned twice with conflicting values")
    bucket[attr_name] = parsed
