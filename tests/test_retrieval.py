import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodfind import dataset as ds
from rodfind import encoders as enc
from rodfind import retrieval as rt
from rodfind import training as tr
from rodfind.errors import ParseError, ParseWarning, RetrievalError
from rodfind.geometry import VoxelGrid
from rodfind.taxonomy import parse_text, render_text


@pytest.fixture(scope="module")
def gallery():
    samples = ds.generate_variants(bases=2, per_base=6, seed=13)
    vocab = ds.build_vocabulary(s.text for s in samples)
    tp, sp = enc.init_params(vocab.size, seed=3)
    data = enc.checkpoint_bytes(tp, sp, vocab.word_to_id, {"seed": 3})
    checkpoint = enc.parse_checkpoint(io.BytesIO(data))
    index = rt.build_index(samples, checkpoint)
    return samples, checkpoint, index


def _embed_canonical(text, checkpoint):
    """(1, D) embedding of the text's canonical rendering, computed outside
    `retrieval.query`."""
    canonical = render_text(parse_text(text))
    vocab = ds.Vocabulary(dict(checkpoint.vocab_words))
    seq = ds.tokenize(canonical, vocab, checkpoint.text.config.max_len)
    return enc.text_forward(checkpoint.text, seq.tokens[None, :],
                            np.array([seq.true_length]))


def assert_query_matches_uncached_scan(text, index, checkpoint, k):
    """`query`'s (id, distance) list equals, bitwise, the (distance, id)
    order of `pairwise_distances` from the float32 gallery, the form that
    keeps no float64 rows or norms."""
    result = rt.query(text, index, checkpoint, k=k)
    dists = tr.pairwise_distances(_embed_canonical(text, checkpoint), index.embeddings)[0]
    order = sorted(range(len(index)), key=lambda j: (dists[j], index.ids[j]))
    assert result.matches == [(index.ids[j], float(dists[j])) for j in order[:k]]


class TestBuildIndex:
    def test_entries_are_unit_norm(self, gallery):
        samples, checkpoint, index = gallery
        assert len(index) == len(samples)
        norms = np.linalg.norm(index.embeddings, axis=1)
        assert np.abs(norms - 1).max() < 1e-5

    def test_empty_rejected(self, gallery):
        _, checkpoint, _ = gallery
        with pytest.raises(RetrievalError, match="empty"):
            rt.build_index([], checkpoint)

    def test_duplicate_ids_rejected(self, gallery):
        samples, checkpoint, _ = gallery
        a, b, c = samples[:3]
        want = f"duplicate sample ids: {sorted([a.id, b.id])}"
        with pytest.raises(RetrievalError) as raised:
            rt.build_index([b, a, c, b, a, b], checkpoint)
        assert str(raised.value) == want

    def test_resolution_mismatch_rejected(self, gallery):
        samples, checkpoint, _ = gallery
        bad = ds.Sample("XXX001", samples[0].spec, samples[0].text,
                        VoxelGrid(4, np.zeros((4, 4, 4), np.uint8)))
        with pytest.raises(RetrievalError, match="resolution"):
            rt.build_index([bad], checkpoint)

    def test_rebuild_is_bitwise_identical(self, gallery, tmp_path):
        samples, checkpoint, index = gallery
        again = rt.build_index(samples, checkpoint)
        a, b = tmp_path / "a.idx", tmp_path / "b.idx"
        rt.save_index(index, a)
        rt.save_index(again, b)
        assert a.read_bytes() == b.read_bytes()


class TestIndexIO:
    def test_round_trip_lossless(self, gallery, tmp_path):
        _, _, index = gallery
        path = tmp_path / "gallery.idx"
        rt.save_index(index, path)
        assert rt.load_index(path) == index

    def test_queried_index_round_trips_to_the_same_bytes(self, gallery, tmp_path):
        samples, checkpoint, index = gallery
        fresh = rt.ShapeIndex(index.ids, index.embeddings, index.nrrd_paths,
                              index.texts, index.fingerprint, index.resolution)
        before, after = tmp_path / "before.idx", tmp_path / "after.idx"
        rt.save_index(fresh, before)
        rt.query(samples[0].text, fresh, checkpoint, k=3)
        rt.save_index(fresh, after)
        assert after.read_bytes() == before.read_bytes()
        loaded = rt.load_index(after)
        assert loaded == fresh and fresh == loaded

    def test_embeddings_are_read_only_and_the_callers_array_is_not(self, gallery):
        _, _, index = gallery
        mine = index.embeddings.copy()
        shared = rt.ShapeIndex(index.ids, mine, index.nrrd_paths, index.texts,
                               index.fingerprint, index.resolution)
        with pytest.raises(ValueError, match="read-only"):
            shared.embeddings[0, 0] = 0.0
        mine[0, 0] = 0.0
        assert shared.embeddings[0, 0] == 0.0  # shared, not copied

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_rejected(self, gallery, tmp_path, bad):
        # a NaN distance never ranks: a 10-entry index with one NaN row
        # answered k=10 with no match at all
        _, _, index = gallery
        rows = index.embeddings.copy()
        rows[3, 5] = bad
        with pytest.raises(RetrievalError, match="finite"):
            rt.ShapeIndex(index.ids, rows, index.nrrd_paths, index.texts,
                          index.fingerprint, index.resolution)
        path = tmp_path / "gallery.idx"
        rt.save_index(index, path)
        path.write_bytes(path.read_bytes()[:-4] + np.array([bad], "<f4").tobytes())
        with pytest.raises(RetrievalError, match="finite"):
            rt.load_index(path)

    def test_loading_peaks_below_the_index_plus_one_and_a_quarter_files(self, tmp_path):
        # a query-sized gallery: 128-d rows and ~714-byte texts, so the JSON
        # header is most of the file
        count, dim = 2000, 128
        rng = np.random.default_rng(4)
        index = rt.ShapeIndex([f"AAX{i:05d}" for i in range(count)],
                              rng.standard_normal((count, dim)).astype(np.float32),
                              [""] * count, [f"{i:05d} " + "w" * 708 for i in range(count)],
                              "f" * 64, 16)
        path = tmp_path / "gallery.idx"
        rt.save_index(index, path)
        tracemalloc.start()
        try:
            loaded = rt.load_index(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == index
        # the parent's three copies of the block and the file put this at ~1.5
        assert (peak - held) / path.stat().st_size < 1.25

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b'{"format": "nope"}\nxxxx')
        with pytest.raises(RetrievalError, match="not a rodfind index"):
            rt.load_index(path)

    def test_truncated_blob_rejected(self, gallery, tmp_path):
        _, _, index = gallery
        path = tmp_path / "gallery.idx"
        rt.save_index(index, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(RetrievalError, match="embedding block"):
            rt.load_index(path)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_nonpositive_dim_rejected(self, gallery, tmp_path, dim):
        # with no embedding bytes the block-size check alone cannot catch it
        _, _, index = gallery
        path = tmp_path / "gallery.idx"
        rt.save_index(index, path)
        head = json.loads(path.read_bytes().split(b"\n", 1)[0])
        path.write_bytes(json.dumps({**head, "dim": dim}).encode() + b"\n")
        with pytest.raises(RetrievalError, match="must be positive"):
            rt.load_index(path)

    @pytest.mark.parametrize("key, value", [("dim", True), ("resolution", True),
                                            ("resolution", False), ("resolution", 0),
                                            ("resolution", -3)])
    def test_bool_or_nonpositive_integer_field_rejected(self, gallery, tmp_path, key,
                                                        value):
        # a bool is an int to isinstance, and compares like 0 or 1; the blob
        # holds as many bytes as the edited header claims, so only the field
        # check can catch it
        _, _, index = gallery
        path = tmp_path / "gallery.idx"
        rt.save_index(index, path)
        head, blob = path.read_bytes().split(b"\n", 1)
        head = {**json.loads(head), key: value}
        blob = blob[:len(head["ids"]) * int(head["dim"]) * 4]
        path.write_bytes(json.dumps(head).encode() + b"\n" + blob)
        with pytest.raises(RetrievalError, match=key):
            rt.load_index(path)

    @pytest.mark.parametrize("edit", [
        lambda h: b"\xff" + json.dumps(h).encode(),
        lambda h: json.dumps(h).encode()[:-1],
        lambda h: json.dumps(sorted(h)).encode(),
        lambda h: json.dumps({k: v for k, v in h.items() if k != "ids"}).encode(),
        lambda h: json.dumps({**h, "dtype": "<f8"}).encode(),
        lambda h: json.dumps({**h, "nrrd_paths": h["nrrd_paths"][1:]}).encode(),
        lambda h: json.dumps({**h, "texts": 5}).encode(),
        lambda h: json.dumps({**h, "dim": float(h["dim"])}).encode(),
        lambda h: json.dumps({**h, "ids": [h["ids"][:1]] + h["ids"][1:]}).encode(),
    ], ids=["not-utf8", "not-json", "json-list", "no-ids", "f8-dtype", "short-nrrd-paths",
            "int-texts", "float-dim", "list-id"])
    def test_malformed_header_raises_retrieval_error(self, gallery, tmp_path, edit):
        _, _, index = gallery
        path = tmp_path / "gallery.idx"
        rt.save_index(index, path)
        head, blob = path.read_bytes().split(b"\n", 1)
        path.write_bytes(edit(json.loads(head)) + b"\n" + blob)
        with pytest.raises(RetrievalError):
            rt.load_index(path)


class TestQuery:
    def test_returns_k_nondecreasing_matches(self, gallery):
        samples, checkpoint, index = gallery
        result = rt.query(samples[0].text, index, checkpoint, k=8)
        assert len(result.matches) == 8
        distances = [d for _, d in result.matches]
        assert distances == sorted(distances)

    def test_k_clamps_to_gallery_with_warning(self, gallery):
        samples, checkpoint, index = gallery
        with pytest.warns(UserWarning, match="clamp"):
            result = rt.query(samples[0].text, index, checkpoint, k=50)
        assert len(result.matches) == len(index)

    def test_matches_brute_force_scan(self, gallery):
        samples, checkpoint, index = gallery
        result = rt.query(samples[3].text, index, checkpoint, k=len(index))
        # independent re-implementation: embed the canonical text, sort by
        # (distance, id) over every gallery entry
        emb = _embed_canonical(samples[3].text, checkpoint)[0]
        dists = np.linalg.norm(index.embeddings - emb[None, :], axis=1)
        expected = sorted(range(len(index)), key=lambda j: (dists[j], index.ids[j]))
        assert [m[0] for m in result.matches] == [index.ids[j] for j in expected]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_ties_at_the_kth_distance_break_by_id(self, gallery, k):
        samples, checkpoint, index = gallery
        # every embedding three times over, under ids that do not follow the
        # gallery order, so equal distances straddle the k-th place
        n = len(index)
        ids = [f"x{(7 * i) % (3 * n):03d}" for i in range(3 * n)]
        tied = rt.ShapeIndex(ids, np.tile(index.embeddings, (3, 1)), [""] * (3 * n),
                             index.texts * 3, index.fingerprint, index.resolution)
        result = rt.query(samples[3].text, tied, checkpoint, k=k)
        full = rt.query(samples[3].text, tied, checkpoint, k=3 * n)
        assert result.matches == full.matches[:k]
        distances = [d for _, d in full.matches]
        assert distances == sorted(distances)
        for (a, da), (b, db) in zip(full.matches, full.matches[1:]):
            assert da < db or a < b
        assert_query_matches_uncached_scan(samples[3].text, tied, checkpoint, k)

    @settings(max_examples=40, deadline=None, database=None)
    @given(data=st.data())
    def test_gallery_with_duplicated_rows_matches_uncached_scan(self, gallery, data):
        samples, checkpoint, index = gallery
        n = len(index)
        # rows drawn with repeats, so equal distances can straddle the k-th place
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n))
        ids = data.draw(st.permutations([f"x{i:03d}" for i in range(len(rows))]))
        k = data.draw(st.integers(1, len(rows)))
        text = samples[data.draw(st.integers(0, n - 1))].text
        drawn = rt.ShapeIndex(ids, index.embeddings[rows], [""] * len(rows),
                              [index.texts[r] for r in rows], index.fingerprint,
                              index.resolution)
        assert_query_matches_uncached_scan(text, drawn, checkpoint, k)

    def test_second_query_reuses_the_float64_gallery(self, gallery, monkeypatch):
        samples, checkpoint, index = gallery
        fresh = rt.ShapeIndex(index.ids, index.embeddings, index.nrrd_paths,
                              index.texts, index.fingerprint, index.resolution)
        seen = []
        distances = rt.pairwise_distances

        def recorded(*args):
            seen.append(args[1:])
            return distances(*args)

        monkeypatch.setattr(rt, "pairwise_distances", recorded)
        rt.query(samples[0].text, fresh, checkpoint, k=3)
        rt.query(samples[1].text, fresh, checkpoint, k=3)
        (rows, norms), (rows_again, norms_again) = seen
        assert rows.dtype == norms.dtype == np.float64
        assert rows_again is rows and norms_again is norms

    def test_fingerprint_mismatch_rejected(self, gallery):
        samples, checkpoint, index = gallery
        other_t, other_s = enc.init_params(checkpoint.text.config.vocab_size, seed=99,
                                           text_config=checkpoint.text.config,
                                           shape_config=checkpoint.shape.config)
        other = enc.parse_checkpoint(io.BytesIO(
            enc.checkpoint_bytes(other_t, other_s, checkpoint.vocab_words, {})))
        with pytest.raises(RetrievalError, match="different checkpoint"):
            rt.query(samples[0].text, index, other, k=3)

    def test_unparseable_text_rejected(self, gallery):
        _, checkpoint, index = gallery
        # the lenient parse skips the sentence with a warning, then finds nothing
        with pytest.warns(ParseWarning), pytest.raises(ParseError):
            rt.query("gibberish sentence about nothing", index, checkpoint, k=3)


class TestPreviews:
    def test_empty_grid_obj_has_no_vertices(self):
        grid = VoxelGrid(4, np.zeros((4, 4, 4), np.uint8))
        data = rt.export_preview(grid).decode()
        assert "v " not in data and "f " not in data

    def test_obj_counts_scale_with_occupancy(self):
        occ = np.zeros((4, 4, 4), np.uint8)
        occ[0, 0, 0] = occ[1, 2, 3] = occ[3, 3, 3] = 1
        data = rt.export_preview(VoxelGrid(4, occ)).decode()
        assert data.count("\nv ") == 8 * 3
        assert data.count("\nf ") == 12 * 3
