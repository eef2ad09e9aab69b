import json
from functools import lru_cache
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfind import dataset as ds
from rodfind import (
    FeatureTriplet,
    LinkingRodSpec,
    SizeClass,
    default_schema,
    parse_text,
    render_text,
    spec_to_triplets,
    validate_spec,
)
from rodfind.errors import ParseError, ParseWarning, SpecError
from rodfind.taxonomy import _norm

AAJ002_TEXT = (
    "The main structure of the link is binary link; "
    "the main structure of the shaft is arc-shaped vertical slab; "
    "the radius of the shaft is large; "
    "the length of the shaft is medium; "
    "the thickness of the shaft is large; "
    "the cross section of the shaft is rectangle; "
    "the inner diameter of the first pivot hole is large; "
    "the outer diameter of the first pivot hole is large; "
    "the depth of the first pivot hole is large; "
    "the inner diameter of the second pivot hole is large; "
    "the outer diameter of the second pivot hole is large; "
    "the depth of the second pivot hole is large."
)


class TestSchema:
    def test_shipped_schema_has_eight_feature_entities(self):
        schema = default_schema()
        assert len(schema.feature_entities) == 8
        assert schema.root == "linking rod"

    def test_size_class_total_order(self):
        assert SizeClass.SMALL < SizeClass.MEDIUM < SizeClass.LARGE
        assert [c.label for c in SizeClass] == ["small", "medium", "large"]

    def test_attribute_names_unique_per_entity(self):
        for entity in default_schema().entities:
            names = [a.name for a in entity.attributes]
            assert len(names) == len(set(names))

    def test_shipped_file_holds_the_contract_the_reader_relies_on(self):
        # default_schema() reads the file as it is, so its contract lives here
        data = json.loads(resources.files("rodfind.data")
                          .joinpath("linking_rod_schema.json").read_text("utf-8"))
        assert set(data) == {"root", "entities", "hole_pairs"}  # the keys it reads
        schema = default_schema()
        entity_names = [e.name for e in schema.entities]
        assert len(entity_names) == len(set(entity_names))
        assert schema.root in entity_names
        for entity in schema.entities:
            assert entity.name == _norm(entity.name)
            attributes = {a.name: a for a in entity.attributes}
            for attr in entity.attributes:
                assert attr.name == _norm(attr.name)
                assert attr.kind in ("structure", "size")
                assert all(v == _norm(v) for v in attr.values)
                assert len(set(attr.values)) == len(attr.values)
                if attr.kind == "structure":
                    assert attr.values
                for other, allowed in attr.requires:
                    assert other in attributes
                    assert set(allowed) <= set(attributes[other].values)
        for style, pair in schema.hole_pairs:
            assert style == _norm(style)
            assert len(pair) == 2
            for name in pair:
                assert name == _norm(name) and name in entity_names

    def test_size_attributes_use_the_three_classes(self):
        # closed enumeration: size attributes never declare their own values
        for entity in default_schema().entities:
            for attr in entity.attributes:
                if attr.kind == "size":
                    assert attr.values == ()


class TestValidate:
    def test_complete_binary_link_is_ok(self, cuboid_rod_spec):
        report = validate_spec(cuboid_rod_spec)
        assert report.ok and report.violations == []

    def test_missing_second_hole_is_missing_mandatory_entity(self, cuboid_rod_spec):
        spec = LinkingRodSpec(
            cuboid_rod_spec.structure,
            {e: dict(a) for e, a in cuboid_rod_spec.sizes.items()
             if e != "second pivot hole"})
        report = validate_spec(spec)
        assert not report.ok
        assert any("missing mandatory entity" in v for v in report.violations)

    def test_spec_without_link_still_gets_the_rod_rules(self, unlinked_three_hole_spec):
        report = validate_spec(unlinked_three_hole_spec)
        assert not report.ok
        assert "missing mandatory entity: link" in report.violations
        assert any("exactly two pivot holes forming one naming pair" in v
                   for v in report.violations)

    def test_equal_inner_diameters_must_not_use_larger_smaller(self):
        spec = LinkingRodSpec(
            structure={"link": {"main structure": "binary link"},
                       "shaft": {"main structure": "cuboid"}},
            sizes={"shaft": {"length": "large", "width": "medium", "thickness": "medium"},
                   "larger pivot hole": {"inner diameter": "large",
                                         "outer diameter": "large", "depth": "medium"},
                   "smaller pivot hole": {"inner diameter": "large",
                                          "outer diameter": "large", "depth": "medium"}})
        report = validate_spec(spec)
        assert not report.ok
        assert any("same inner diameter" in v for v in report.violations)

    def test_differing_inner_diameters_require_larger_smaller(self, cuboid_rod_spec):
        sizes = {e: dict(a) for e, a in cuboid_rod_spec.sizes.items()}
        sizes["second pivot hole"]["inner diameter"] = SizeClass.SMALL
        report = validate_spec(LinkingRodSpec(cuboid_rod_spec.structure, sizes))
        assert not report.ok
        assert any("larger/smaller" in v for v in report.violations)

    def test_missing_mandatory_attribute(self, cuboid_rod_spec):
        sizes = {e: dict(a) for e, a in cuboid_rod_spec.sizes.items()}
        del sizes["shaft"]["width"]
        report = validate_spec(LinkingRodSpec(cuboid_rod_spec.structure, sizes))
        assert any("missing mandatory attribute 'width'" in v for v in report.violations)

    def test_inapplicable_attribute_rejected(self, cuboid_rod_spec):
        sizes = {e: dict(a) for e, a in cuboid_rod_spec.sizes.items()}
        sizes["shaft"]["radius"] = SizeClass.LARGE  # radius is arc-slab only
        report = validate_spec(LinkingRodSpec(cuboid_rod_spec.structure, sizes))
        assert any("not applicable" in v for v in report.violations)


class TestTriplets:
    def test_separate_type_triplet(self, cuboid_rod_spec):
        spec = LinkingRodSpec(
            structure={**{e: dict(a) for e, a in cuboid_rod_spec.structure.items()},
                       "first pivot hole": {"type": "separate type"}},
            sizes=cuboid_rod_spec.sizes)
        triplets = spec_to_triplets(spec)
        assert FeatureTriplet("first pivot hole", "type", "separate type") in triplets

    def test_every_entity_linked_to_root(self, cuboid_rod_spec):
        triplets = spec_to_triplets(cuboid_rod_spec)
        assert FeatureTriplet("linking rod", "structural feature", "shaft") in triplets
        assert FeatureTriplet("linking rod", "structural feature", "link") in triplets

    def test_deterministic(self, cuboid_rod_spec):
        assert spec_to_triplets(cuboid_rod_spec) == spec_to_triplets(cuboid_rod_spec)

    def test_triplets_resolve_against_schema(self, cuboid_rod_spec):
        schema = default_schema()
        for subject, predicate, obj in spec_to_triplets(cuboid_rod_spec):
            if predicate == "structural feature":
                assert subject == schema.root
                assert schema.entity(obj) is not None
            else:
                entity = schema.entity(subject)
                attr = entity.attribute(predicate)
                assert attr is not None
                if attr.kind == "size":
                    SizeClass.from_label(obj)
                else:
                    assert obj in attr.values


class TestRender:
    def test_aaj002_verbatim(self, arc_rod_spec):
        assert render_text(arc_rod_spec) == AAJ002_TEXT

    def test_minimal_spec_single_sentence(self):
        spec = LinkingRodSpec(structure={"link": {"main structure": "binary link"}})
        assert render_text(spec) == "The main structure of the link is binary link."

    def test_render_parse_render_idempotent(self, cuboid_rod_spec):
        text = render_text(cuboid_rod_spec)
        assert render_text(parse_text(text)) == text

    def test_rendered_terms_come_from_schema_vocabulary(self, cuboid_rod_spec, arc_rod_spec):
        allowed = {"the", "of", "is"} | {c.label for c in SizeClass}
        for entity in default_schema().entities:
            allowed.update(entity.name.split())
            for attr in entity.attributes:
                allowed.update(attr.name.split())
                allowed.update(w for value in attr.values for w in value.split())
        for spec in (cuboid_rod_spec, arc_rod_spec):
            words = render_text(spec).lower().replace(";", "").replace(".", "").split()
            assert set(words) <= allowed

    def test_unresolvable_spec_rejected(self):
        bad = LinkingRodSpec(structure={"link": {"main structure": "chain link"}})
        with pytest.raises(SpecError):
            render_text(bad)


class TestParse:
    def test_aaj002_parses_back(self, arc_rod_spec):
        assert parse_text(AAJ002_TEXT) == arc_rod_spec

    def test_empty_text_is_error(self):
        with pytest.raises(ParseError, match="no recognizable sentence"):
            parse_text("")

    def test_lenient_mode_warns_and_applies_rest(self, cuboid_rod_spec):
        text = render_text(cuboid_rod_spec)
        broken = text.replace("the width of the shaft", "the girth of the shaft")
        with pytest.warns(ParseWarning) as caught:
            spec = parse_text(broken, lenient=True)
        assert len(caught) == 1
        assert spec.size_of("shaft", "width") is None
        assert spec.size_of("shaft", "length") == SizeClass.LARGE

    def test_strict_mode_raises_on_unknown_attribute(self, cuboid_rod_spec):
        broken = render_text(cuboid_rod_spec).replace("width", "girth")
        with pytest.raises(ParseError, match="girth"):
            parse_text(broken)

    def test_ambiguous_attribute_names_candidates(self):
        with pytest.raises(ParseError) as err:
            parse_text("the diameter of the first pivot hole is large")
        message = str(err.value)
        assert "inner diameter" in message and "outer diameter" in message

    def test_ambiguous_entity_names_candidates(self):
        with pytest.raises(ParseError, match="ambiguous entity"):
            parse_text("the depth of the pivot hole is large")

    def test_case_insensitive(self, cuboid_rod_spec):
        text = render_text(cuboid_rod_spec).upper()
        assert parse_text(text) == cuboid_rod_spec

    def test_conflicting_duplicate_sentence_rejected(self):
        text = ("the length of the shaft is large; "
                "the length of the shaft is small.")
        with pytest.raises(ParseError, match="conflicting"):
            parse_text(text)


@lru_cache(maxsize=None)
def base_combos(index):
    structure, pair = ds.base_structures(index + 1)[index]
    slots, combos = ds.enumerate_size_combos(structure, pair)
    return structure, slots, combos


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_round_trip_over_shipped_base_variants(self, data):
        # a spec built as generate_variants builds it, from any shipped base
        # and any admissible size-class combination
        structure, slots, combos = base_combos(data.draw(st.integers(0, 14), label="base"))
        combo = combos[data.draw(st.integers(0, len(combos) - 1), label="combo")]
        sizes = {}
        for (entity, attr), cls in zip(slots, combo):
            sizes.setdefault(entity, {})[attr] = cls
        spec = LinkingRodSpec({e: dict(a) for e, a in structure.items()}, sizes)
        assert validate_spec(spec).ok
        assert parse_text(render_text(spec)) == spec

    def test_round_trip_random_rod_specs(self):
        import numpy as np

        rng = np.random.default_rng(5)
        pairs = [("first pivot hole", "second pivot hole"),
                 ("left-side pivot hole", "right-side pivot hole")]
        for _ in range(50):
            a, b = pairs[rng.integers(0, 2)]
            inner = SizeClass(int(rng.integers(0, 3)))
            cls = lambda: SizeClass(int(rng.integers(0, 3)))
            spec = LinkingRodSpec(
                structure={"link": {"main structure": "binary link"},
                           "shaft": {"main structure": "cuboid"}},
                sizes={"shaft": {"length": cls(), "width": cls(), "thickness": cls()},
                       a: {"inner diameter": inner, "outer diameter": cls(), "depth": cls()},
                       b: {"inner diameter": inner, "outer diameter": cls(), "depth": cls()}})
            assert validate_spec(spec).ok
            assert parse_text(render_text(spec)) == spec
