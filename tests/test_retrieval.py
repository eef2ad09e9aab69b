import json

import numpy as np
import pytest

from rodfind import dataset as ds
from rodfind import encoders as enc
from rodfind import retrieval as rt
from rodfind import training as tr
from rodfind.errors import ParseError, ParseWarning, RetrievalError
from rodfind.geometry import VoxelGrid


@pytest.fixture(scope="module")
def gallery():
    samples = ds.generate_variants(bases=2, per_base=6, seed=13)
    vocab = ds.build_vocabulary(s.text for s in samples)
    tp, sp = enc.init_params(vocab.size, seed=3)
    data = enc.checkpoint_bytes(tp, sp, vocab.word_to_id, {"seed": 3})
    checkpoint = enc.parse_checkpoint(data)
    index = rt.build_index(samples, checkpoint)
    return samples, checkpoint, index


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
        with pytest.raises(RetrievalError, match="duplicate"):
            rt.build_index([samples[0], samples[0]], checkpoint)

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
        from rodfind.taxonomy import parse_text, render_text

        canonical = render_text(parse_text(samples[3].text))
        vocab = ds.Vocabulary(dict(checkpoint.vocab_words))
        seq = ds.tokenize(canonical, vocab, 256)
        emb = enc.text_forward(checkpoint.text, seq.tokens[None, :],
                               np.array([seq.true_length]))[0]
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

    def test_fingerprint_mismatch_rejected(self, gallery):
        samples, checkpoint, index = gallery
        other_t, other_s = enc.init_params(checkpoint.text.config.vocab_size, seed=99,
                                           text_config=checkpoint.text.config,
                                           shape_config=checkpoint.shape.config)
        other = enc.parse_checkpoint(
            enc.checkpoint_bytes(other_t, other_s, checkpoint.vocab_words, {}))
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
        data = rt.export_preview(grid, "obj").decode()
        assert "v " not in data and "f " not in data

    def test_obj_counts_scale_with_occupancy(self):
        occ = np.zeros((4, 4, 4), np.uint8)
        occ[0, 0, 0] = occ[1, 2, 3] = occ[3, 3, 3] = 1
        data = rt.export_preview(VoxelGrid(4, occ), "obj").decode()
        assert data.count("\nv ") == 8 * 3
        assert data.count("\nf ") == 12 * 3

    def test_full_grid_pgm_slices(self):
        grid = VoxelGrid(16, np.ones((16, 16, 16), np.uint8))
        data = rt.export_preview(grid, "pgm_slices")
        header = f"P5\n16 {16 * 16}\n255\n".encode()
        assert data.startswith(header)
        payload = data[len(header):]
        assert len(payload) == 16 * 16 * 16
        assert set(payload) == {255}

    def test_unknown_format(self):
        grid = VoxelGrid(4, np.zeros((4, 4, 4), np.uint8))
        with pytest.raises(RetrievalError, match="unknown preview format"):
            rt.export_preview(grid, "png")
