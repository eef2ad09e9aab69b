import itertools
from collections import Counter

import numpy as np
import pytest

from rodfind import dataset as ds
from rodfind import parse_text
from rodfind.errors import DatasetError, ManifestError, NrrdError
from rodfind.geometry import VoxelGrid
from rodfind.taxonomy import SizeClass, default_schema


def random_grid(rng, n=16):
    return VoxelGrid(n, (rng.random((n, n, n)) < 0.5).astype(np.uint8))


class TestGenerate:
    def test_desk_scale_corpus(self):
        samples = ds.generate_variants(bases=3, per_base=40, seed=7)
        assert len(samples) == 120
        texts = [s.text for s in samples]
        assert len(set(texts)) == 120
        for s in samples[::13]:
            assert parse_text(s.text) == s.spec
            assert s.grid.resolution == 16

    def test_total_distributed_over_15_bases(self):
        with pytest.warns(ds.DatasetWarning):
            samples = ds.generate_variants(bases=15, total=1000, seed=0,
                                           with_grids=False)
        assert len(samples) == 1000
        per_base = Counter(s.id[:3] for s in samples)
        assert len(per_base) == 15
        assert all(66 <= c <= 67 for c in per_base.values())
        assert len({s.text for s in samples}) == 1000

    def test_ids_follow_aax_pattern(self):
        samples = ds.generate_variants(bases=2, per_base=3, seed=0, with_grids=False)
        assert [s.id for s in samples] == [
            "AAA001", "AAA002", "AAA003", "AAB001", "AAB002", "AAB003"]

    def test_exhaustive_enumeration_when_counts_match(self):
        # base 0 has 9 size slots and a first/second pair, whose equal inner
        # diameters leave 3^8 = 6561 combinations
        (structure, pair), = ds.base_structures(1)
        slots, combos = ds.enumerate_size_combos(structure, pair)
        assert len(slots) == 9 and len(combos) == 6561
        with pytest.warns(ds.DatasetWarning):  # far above the usual 48-64
            samples = ds.generate_variants(bases=1, per_base=6561, seed=3,
                                           with_grids=False)
        # every combination exactly once, and distinct specs give distinct texts
        assert len({s.text for s in samples}) == 6561

    def test_over_request_reports_maximum(self):
        with pytest.warns(ds.DatasetWarning), pytest.raises(DatasetError, match="6561"):
            ds.generate_variants(bases=1, per_base=6562, seed=0, with_grids=False)

    @pytest.mark.parametrize("counts", [dict(per_base=0), dict(per_base=-1),
                                        dict(total=0), dict(total=-5)],
                             ids=["per_base=0", "per_base=-1", "total=0", "total=-5"])
    def test_count_below_one_refused(self, counts):
        # a negative per_base once sliced the permutation from its end and
        # kept every combination but one
        name, value = next(iter(counts.items()))
        with pytest.raises(DatasetError, match=f"{name} must be at least 1, got {value}"):
            ds.generate_variants(bases=2, seed=0, with_grids=False, **counts)

    def test_same_seed_same_samples(self):
        a = ds.generate_variants(bases=2, per_base=5, seed=42)
        b = ds.generate_variants(bases=2, per_base=5, seed=42)
        assert [(s.id, s.text) for s in a] == [(s.id, s.text) for s in b]
        assert all(x.grid == y.grid for x, y in zip(a, b))

    def test_variants_share_structure_and_differ_in_sizes(self):
        samples = ds.generate_variants(bases=1, per_base=10, seed=1, with_grids=False)
        structures = {tuple(sorted((e, tuple(sorted(a.items())))
                                   for e, a in s.spec.structure.items()))
                      for s in samples}
        assert len(structures) == 1
        size_combos = {tuple(sorted((e, tuple(sorted((k, v.name) for k, v in a.items())))
                                    for e, a in s.spec.sizes.items()))
                       for s in samples}
        assert len(size_combos) == 10


def reference_size_combos(structure, pair):
    """Every size-class tuple over the slots, filtered one by one by the
    hole-pair naming's rule."""
    schema = default_schema()
    slots = ds._size_slots(structure, pair, schema)
    style = next(style for style, names in schema.hole_pairs if tuple(names) == pair)
    a, b = pair
    kept = []
    for combo in itertools.product(list(SizeClass), repeat=len(slots)):
        inner = {e: c for (e, attr), c in zip(slots, combo) if attr == "inner diameter"}
        outer = {e: c for (e, attr), c in zip(slots, combo) if attr == "outer diameter"}
        if style == "larger_smaller":
            ok = inner[a] > inner[b] and outer[a] >= outer[b]
        else:
            ok = inner[a] == inner[b]
        if ok:
            kept.append(combo)
    return slots, kept


class TestEnumerateSizeCombos:
    def test_matches_the_per_tuple_reference_in_order(self):
        # bases 0-2 name their hole pairs first/second, left-side/right-side
        # and larger/smaller, which covers both filtering rules
        bases = ds.base_structures(3)
        assert len({pair for _, pair in bases}) == 3
        for structure, pair in bases:
            slots, combos = ds.enumerate_size_combos(structure, pair)
            want_slots, want = reference_size_combos(structure, pair)
            assert slots == want_slots
            assert combos == want
            assert all(type(c) is SizeClass for c in combos[0])


class TestVocabulary:
    def test_threshold_keeps_frequent_words(self):
        texts = ["shaft shaft shaft shaft shaft", "rare"]
        vocab = ds.build_vocabulary(texts)
        assert "shaft" in vocab and "rare" not in vocab

    def test_boundary_two_vs_three_occurrences(self):
        texts = ["twice thrice", "twice thrice", "thrice"]
        counts = Counter(w for t in texts for w in t.split())
        vocab = ds.build_vocabulary(texts)
        for word, count in counts.items():
            assert (word in vocab) == (count >= 3)

    def test_empty_corpus_keeps_reserved_ids_only(self):
        vocab = ds.build_vocabulary(["", "", ""])
        assert vocab.size == 2  # PAD and UNK

    def test_ids_contiguous_and_ordered(self):
        texts = ["b b b a a a a c c c"] * 1
        vocab = ds.build_vocabulary([texts[0]])
        # descending count then lexicographic, after PAD=0/UNK=1
        assert vocab.word_to_id == {"a": 2, "b": 3, "c": 4}

    def test_punctuation_stripped(self):
        vocab = ds.build_vocabulary(["large; large. large,"])
        assert "large" in vocab and vocab.id_of("large") == 2


class TestTokenize:
    def test_long_text_truncated_to_256(self):
        vocab = ds.build_vocabulary(["word word word"])
        seq = ds.tokenize(" ".join(["word"] * 300), vocab)
        assert seq.true_length == 256
        assert len(seq.tokens) == 256
        assert (seq.tokens == vocab.id_of("word")).all()

    def test_empty_text_all_pad(self):
        vocab = ds.build_vocabulary(["a a a"])
        seq = ds.tokenize("", vocab)
        assert seq.true_length == 0
        assert (seq.tokens == ds.PAD_ID).all()

    def test_oov_becomes_unk(self):
        vocab = ds.build_vocabulary(["known known known"])
        seq = ds.tokenize("known mystery known", vocab)
        assert seq.tokens[1] == ds.UNK_ID
        assert seq.tokens[0] == seq.tokens[2] == vocab.id_of("known")


class TestNrrd:
    def test_header_arithmetic_16_cubed(self):
        grid = VoxelGrid(16, np.ones((16, 16, 16), np.uint8))
        data = ds.write_nrrd(grid)
        header, _, payload = data.partition(b"\n\n")
        assert payload == b"\x01" * 4096
        lines = header.split(b"\n")
        assert lines[0] == b"NRRD0004"
        assert b"type: uint8" in lines
        assert b"dimension: 3" in lines
        assert b"sizes: 16 16 16" in lines
        assert b"encoding: raw" in lines

    def test_round_trip_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grid = random_grid(rng)
            assert ds.read_nrrd(ds.write_nrrd(grid)) == grid

    def test_payload_order_is_x_fastest(self):
        occ = np.zeros((4, 4, 4), np.uint8)
        occ[1, 0, 0] = 1  # second payload byte
        data = ds.write_nrrd(VoxelGrid(4, occ))
        payload = data.split(b"\n\n", 1)[1]
        assert payload[1] == 1 and payload.count(b"\x01") == 1

    def test_size_mismatch_is_error(self):
        grid = VoxelGrid(16, np.zeros((16, 16, 16), np.uint8))
        data = ds.write_nrrd(grid)[:-1]  # drop one payload byte
        with pytest.raises(NrrdError, match="4096"):
            ds.read_nrrd(data)

    def test_unsupported_fields_name_the_field(self):
        grid = VoxelGrid(4, np.zeros((4, 4, 4), np.uint8))
        data = ds.write_nrrd(grid)
        for old, new, name in [(b"type: uint8", b"type: float", b"'type'"),
                               (b"dimension: 3", b"dimension: 2", b"'dimension'"),
                               (b"encoding: raw", b"encoding: gzip", b"'encoding'")]:
            with pytest.raises(NrrdError) as err:
                ds.read_nrrd(data.replace(old, new))
            assert name.decode() in str(err.value)

    def test_empty_cube_is_error(self):
        data = b"NRRD0004\ntype: uint8\ndimension: 3\nsizes: 0 0 0\nencoding: raw\n\n"
        with pytest.raises(NrrdError, match="'sizes'"):
            ds.read_nrrd(data)

    def test_reader_ignores_comments_and_keyvalue_meta(self):
        grid = VoxelGrid(4, np.zeros((4, 4, 4), np.uint8))
        data = ds.write_nrrd(grid)
        patched = data.replace(
            b"encoding: raw\n", b"encoding: raw\n# comment\nsource:=AAA001\n")
        assert ds.read_nrrd(patched) == grid


class TestManifest:
    def rows(self):
        return [ds.ManifestRow("AAA001", "text one", "grids/AAA001.nrrd", "train"),
                ds.ManifestRow("AAA002", "text, with comma; and semicolon", "grids/AAA002.nrrd", "val")]

    def write(self, directory, meta=None):
        """The rows' manifest under `directory`, with their grid files."""
        (directory / "grids").mkdir()
        for row in self.rows():
            (directory / row.nrrd_path).write_bytes(b"")
        path = directory / "manifest.csv"
        ds.write_manifest(ds.DatasetManifest(self.rows(), meta or {}), path)
        return path

    def test_two_rows_and_header(self, tmp_path):
        lines = self.write(tmp_path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,text,nrrd_path,split"
        assert len(lines) == 3

    def test_quoted_text_round_trips(self, tmp_path):
        path = self.write(tmp_path)
        back = ds.read_manifest(path)
        assert [r.text for r in back.rows] == [r.text for r in self.rows()]
        assert '"' in path.read_text(encoding="utf-8")  # the comma forced quoting

    def test_duplicate_id_rejected(self, tmp_path):
        rows = self.rows()
        rows[1].id = rows[0].id
        with pytest.raises(ManifestError, match="duplicate"):
            ds.write_manifest(ds.DatasetManifest(rows), tmp_path / "manifest.csv")

    def test_unknown_split_rejected(self, tmp_path):
        rows = self.rows()
        rows[0].split = "test"
        with pytest.raises(ManifestError, match="split"):
            ds.write_manifest(ds.DatasetManifest(rows), tmp_path / "manifest.csv")

    def test_dangling_paths_listed(self, tmp_path):
        path = tmp_path / "manifest.csv"
        ds.write_manifest(ds.DatasetManifest(self.rows()), path)
        with pytest.raises(ManifestError, match="AAA001.nrrd"):
            ds.read_manifest(path)

    def test_file_round_trip_with_meta(self, tmp_path):
        back = ds.read_manifest(self.write(tmp_path, {"seed": 7, "resolution": 16}))
        assert back.meta == {"seed": 7, "resolution": 16}
        assert [r.__dict__ for r in back.rows] == [r.__dict__ for r in self.rows()]

    def test_non_utf8_manifest_is_manifest_error(self, tmp_path):
        path = self.write(tmp_path)
        path.write_bytes(b"id,text,nrrd_path,split\nAAA001,caf\xe9,grids/AAA001.nrrd,train\n")
        with pytest.raises(ManifestError, match="UTF-8"):
            ds.read_manifest(path)

    def test_oversized_field_is_manifest_error_naming_its_line(self, tmp_path):
        # past the csv module's field size limit (131,072 characters)
        path = self.write(tmp_path)
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(f"AAA003,{'x' * 200_000},grids/AAA001.nrrd,train\n")
        with pytest.raises(ManifestError, match="manifest line 4: field larger"):
            ds.read_manifest(path)

    @pytest.mark.parametrize("sidecar", [b'{"seed": 7', b"\xff{}", b"[1, 2]"],
                             ids=["not-json", "not-utf8", "not-an-object"])
    def test_bad_sidecar_is_manifest_error(self, tmp_path, sidecar):
        path = self.write(tmp_path)
        (tmp_path / "manifest.csv.meta.json").write_bytes(sidecar)
        with pytest.raises(ManifestError, match="meta.json"):
            ds.read_manifest(path)


class TestSplit:
    def make(self, n):
        with pytest.warns(ds.DatasetWarning):
            return ds.generate_variants(bases=15, total=n, seed=5, with_grids=False)

    def test_1000_at_tenth_gives_900_100(self):
        samples = self.make(1000)
        train, val = ds.split_samples(samples, 0.1, seed=0)
        assert (len(train), len(val)) == (900, 100)

    def test_union_and_disjointness(self):
        samples = ds.generate_variants(bases=3, per_base=20, seed=2, with_grids=False)
        train, val = ds.split_samples(samples, 0.25, seed=0)
        assert sorted(s.id for s in train + val) == sorted(s.id for s in samples)
        assert not {s.id for s in train} & {s.id for s in val}

    def test_deterministic(self):
        samples = ds.generate_variants(bases=3, per_base=20, seed=2, with_grids=False)
        a = ds.split_samples(samples, 0.2, seed=9)
        b = ds.split_samples(samples, 0.2, seed=9)
        assert [s.id for s in a[0]] == [s.id for s in b[0]]
        assert [s.id for s in a[1]] == [s.id for s in b[1]]

    def test_stratified_every_base_in_both(self):
        samples = ds.generate_variants(bases=4, per_base=10, seed=3, with_grids=False)
        train, val = ds.split_samples(samples, 0.2, seed=1)
        assert {s.id[:3] for s in train} == {s.id[:3] for s in val}

    def test_single_sample_base_goes_to_train(self):
        samples = ds.generate_variants(bases=2, per_base=8, seed=1, with_grids=False)
        lone = ds.generate_variants(bases=3, per_base=1, seed=1, with_grids=False)[2:]
        with pytest.warns(ds.DatasetWarning, match="single sample"):
            train, val = ds.split_samples(samples + lone, 0.25, seed=0)
        assert lone[0].id in {s.id for s in train}


class TestCorpusInvariants:
    def test_generated_corpus_has_zero_unk(self):
        samples = ds.generate_variants(bases=4, per_base=12, seed=11, with_grids=False)
        vocab = ds.build_vocabulary([s.text for s in samples])
        for s in samples:
            seq = ds.tokenize(s.text, vocab)
            assert (seq.tokens[:seq.true_length] != ds.UNK_ID).all()
