"""The three workloads. Each drives rodfind only through the public functions
of `dataset`, `geometry`, `encoders`, `training` and `retrieval`, builds its
inputs from the seed, and checks every output against `checks`.

A workload has `setup()` (repeatable; state from the last call is used),
`op()` (one timed operation, returning an `Op`), `check(op)` (untimed; raises
`CheckFailed` or a program error) and `report(ops)` (the workload's own named
figures). `Op.items` is what the operation completed: training samples,
ingested samples or queries.
"""

from __future__ import annotations

import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    check_loss,
    check_topk,
    corpus_digest,
    id_ranks,
    reference_recall,
    reference_topk,
    require,
    tail_percentile,
)


@dataclass(frozen=True)
class Sizes:
    # train: criterion 09's desk-scale config
    train_bases: int = 3
    train_per_base: int = 40
    train_epochs: int = 1
    batch_size: int = 4
    margin: float = 0.5
    learning_rate: float = 1e-5
    conv_layers: int = 7
    # ingest: one round grows the gallery by bases x per_base samples
    ingest_bases: int = 15
    ingest_per_base: int = 8
    eval_ks: tuple = (1, 8)
    hub_segments: tuple = (16, 24, 24, 32)
    # query: ROADMAP's middle gallery size
    gallery: int = 10_000
    query_bases: int = 15
    query_per_base: int = 80
    planted: int = 32
    k: int = 8
    # set-up repeats at least `setups` times and until `setup_seconds` have
    # passed; setup_s is the median
    setups: int = 3
    setup_seconds: float = 6.0


FULL = Sizes()
SMOKE = Sizes(train_bases=1, train_per_base=6, train_epochs=1, ingest_bases=2,
              ingest_per_base=3, hub_segments=(8,), gallery=300, query_bases=2,
              query_per_base=6, planted=3, setup_seconds=0.0)

VAL_FRACTION = 0.1
RESOLUTION = 16


@dataclass
class Op:
    seconds: float
    items: int
    stats: dict = field(default_factory=dict)  # kept for the report
    data: dict = field(default_factory=dict)   # dropped once checked


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def _sample_bytes(rf, samples):
    for s in samples:
        yield s.id.encode() + b"\0" + s.text.encode() + b"\0"
        if s.grid is not None:
            yield rf.dataset.write_nrrd(s.grid)


class Workload:
    def __init__(self, rf, sizes: Sizes, seed: int, tmp: Path):
        self.rf, self.sizes, self.seed, self.tmp = rf, sizes, seed, tmp
        self.digest = ""
        # the workloads provoke warnings on purpose: skipped sentences in the
        # lenient parse, and per-base counts above the usual range
        warnings.simplefilter("ignore")

    def _fresh_dir(self, name):
        path = self.tmp / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def _checkpoint(self, texts, directory):
        """A freshly initialised model, saved and loaded the way a user
        receives a trained one."""
        enc, ds = self.rf.encoders, self.rf.dataset
        vocab = ds.build_vocabulary(texts)
        text, shape = enc.init_params(vocab.size, self.seed)
        path = directory / "model.ckpt"
        enc.save_checkpoint(path, text, shape, vocab.word_to_id, {"seed": self.seed})
        checkpoint = enc.load_checkpoint(path)
        return checkpoint, ds.Vocabulary(dict(checkpoint.vocab_words))


# ---------------------------------------------------------------------------
# train

class Train(Workload):
    """`training.fit` for a fixed number of epochs on the desk-scale corpus."""

    def setup(self):
        sz, ds = self.sizes, self.rf.dataset
        samples = ds.generate_variants(bases=sz.train_bases, per_base=sz.train_per_base,
                                       seed=self.seed)
        self.train, self.val = ds.split_samples(samples, VAL_FRACTION, seed=self.seed)
        self.digest = corpus_digest(_sample_bytes(self.rf, samples))

    def op(self):
        sz, tr, enc = self.sizes, self.rf.training, self.rf.encoders
        config = tr.TrainerConfig(batch_size=sz.batch_size, learning_rate=sz.learning_rate,
                                  epochs=sz.train_epochs, margin=sz.margin, mu=1.0,
                                  seed=self.seed)
        result, seconds = _timed(
            tr.fit, self.train, self.val, config,
            shape_config=enc.ShapeEncoderConfig(num_conv_layers=sz.conv_layers))
        return Op(seconds, len(self.train) * sz.train_epochs,
                  {"losses": [row.train_loss for row in result.log]})

    def check(self, op):
        require(len(op.stats["losses"]) == self.sizes.train_epochs, "missing epoch logs")
        # each direction's hinge is at most d_ap + margin <= 2 + margin
        for loss in op.stats["losses"]:
            check_loss(loss, 2 * (2.0 + self.sizes.margin))

    def report(self, ops):
        seconds = sum(o.seconds for o in ops)
        return [("train_samples_per_s", sum(o.items for o in ops) / seconds, "1/s"),
                ("train_loss_end", ops[-1].stats["losses"][-1], "loss")]


# ---------------------------------------------------------------------------
# ingest

def hub_mesh(rf, rng, segments):
    """Watertight tessellated hub: an annulus of `segments` sides with a
    through bore, 8 * segments triangles with outward normals."""
    outer = rng.uniform(8.0, 12.0)
    inner = rng.uniform(0.3, 0.6) * outer
    height = rng.uniform(6.0, 12.0)
    angle = 2 * np.pi * np.arange(segments) / segments
    ring = np.stack([np.cos(angle), np.sin(angle)], axis=1)

    def loop(radius, z):
        return np.column_stack([radius * ring, np.full(segments, z)]).astype(np.float32)

    ob, ot, ib, it = loop(outer, 0.0), loop(outer, height), loop(inner, 0.0), loop(inner, height)
    nxt = np.roll(np.arange(segments), -1)
    cur = np.arange(segments)
    tris = np.concatenate([
        np.stack([ob[cur], ob[nxt], ot[nxt]], 1), np.stack([ob[cur], ot[nxt], ot[cur]], 1),
        np.stack([ib[cur], it[cur], it[nxt]], 1), np.stack([ib[cur], it[nxt], ib[nxt]], 1),
        np.stack([ot[cur], ot[nxt], it[nxt]], 1), np.stack([ot[cur], it[nxt], it[cur]], 1),
        np.stack([ob[cur], ib[cur], ib[nxt]], 1), np.stack([ob[cur], ib[nxt], ob[nxt]], 1),
    ])
    normals = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return rf.geometry.TriangleMesh(normals, tris, None)


class Ingest(Workload):
    """Grow the gallery: generate, write, read back, index, evaluate, and
    import STL meshes."""

    def setup(self):
        sz, ds = self.sizes, self.rf.dataset
        directory = self._fresh_dir("setup")
        # the checkpoint's vocabulary comes from a train-sized corpus, as a
        # trained model's would
        texts = [s.text for s in ds.generate_variants(
            bases=sz.train_bases, per_base=sz.train_per_base, seed=self.seed,
            with_grids=False)]
        self.checkpoint, self.vocab = self._checkpoint(texts, directory)
        rng = np.random.default_rng([self.seed, 1])
        self.meshes = []
        for i, segments in enumerate(sz.hub_segments):
            mesh = hub_mesh(self.rf, rng, segments)
            path = directory / f"hub{i}.stl"
            path.write_bytes(self.rf.geometry.write_stl(mesh))
            self.meshes.append((path, mesh))
        self.round = 0

    def op(self):
        sz, ds, rt, tr, geo = (self.sizes, self.rf.dataset, self.rf.retrieval,
                               self.rf.training, self.rf.geometry)
        self.round += 1
        out = self._fresh_dir("round")
        seed = self.seed * 100_003 + self.round

        started = time.perf_counter()
        samples = ds.generate_variants(bases=sz.ingest_bases, per_base=sz.ingest_per_base,
                                       seed=seed)
        _, val = ds.split_samples(samples, VAL_FRACTION, seed=seed)
        val_ids = {s.id for s in val}
        (out / "grids").mkdir()
        rows = []
        for s in samples:
            rel = f"grids/{s.id}.nrrd"
            (out / rel).write_bytes(ds.write_nrrd(s.grid))
            rows.append(ds.ManifestRow(s.id, s.text, rel,
                                       "val" if s.id in val_ids else "train"))
        meta = {"resolution": RESOLUTION, "seed": seed, "bases": sz.ingest_bases}
        ds.write_manifest(ds.DatasetManifest(rows, meta), out / "manifest.csv")
        manifest = ds.read_manifest(out / "manifest.csv")
        loaded = [ds.Sample(row.id, None, row.text,
                            ds.read_nrrd((out / row.nrrd_path).read_bytes()))
                  for row in manifest.rows]
        paths = {row.id: str(out / row.nrrd_path) for row in manifest.rows}
        index = rt.build_index(loaded, self.checkpoint, nrrd_paths=paths)
        rt.save_index(index, out / "gallery.idx")
        ingest_s = time.perf_counter() - started

        started = time.perf_counter()
        recall = {k: tr.evaluate_recall(self.checkpoint.text, self.checkpoint.shape,
                                        loaded, k, self.vocab) for k in sz.eval_ks}
        eval_s = time.perf_counter() - started

        started = time.perf_counter()
        grids = [geo.voxelize_mesh(geo.parse_stl(path.read_bytes()), RESOLUTION)
                 for path, _ in self.meshes]
        mesh_s = time.perf_counter() - started

        stats = {"ingest_s": ingest_s, "eval_s": eval_s, "mesh_s": mesh_s,
                 "triangles": sum(len(m) for _, m in self.meshes)}
        return Op(ingest_s + eval_s + mesh_s, len(samples), stats, {
            "out": out, "samples": samples, "rows": rows, "meta": meta,
            "manifest": manifest, "loaded": loaded, "index": index, "recall": recall,
            "grids": grids})

    def check(self, op):
        ds, rt, tr, tx = (self.rf.dataset, self.rf.retrieval, self.rf.training,
                          self.rf.taxonomy)
        d = op.data
        require(d["manifest"].rows == d["rows"], "manifest rows did not round-trip")
        require(d["manifest"].meta == d["meta"], "manifest metadata did not round-trip")
        for sample, back in zip(d["samples"], d["loaded"]):
            require(back.grid == sample.grid, f"{sample.id}: NRRD did not round-trip")
            require(tx.parse_text(sample.text) == sample.spec,
                    f"{sample.id}: parse_text(text) differs from the spec")
        require(rt.load_index(d["out"] / "gallery.idx") == d["index"],
                "index did not round-trip")
        ids = d["index"].ids
        text_embs = tr.embed_texts(self.checkpoint.text, d["loaded"], self.vocab)
        for k, value in d["recall"].items():
            want = reference_recall(text_embs, d["index"].embeddings, ids, k)
            require(value == want, f"recall@{k} {value} differs from reference {want}")
        for (path, mesh), grid in zip(self.meshes, d["grids"]):
            require(self.rf.geometry.parse_stl(path.read_bytes()) == mesh,
                    f"{path.name}: STL did not round-trip")
            n = grid.resolution
            require(0 < grid.occupied_count < n ** 3, f"{path.name}: empty or full grid")
            require(not grid.occupancy[n // 2, n // 2].any(),
                    f"{path.name}: the bore is filled")
        if not self.digest:
            files = [d["out"] / "manifest.csv", d["out"] / "manifest.csv.meta.json"]
            files += [d["out"] / row.nrrd_path for row in d["rows"]]
            self.digest = corpus_digest(p.read_bytes() for p in files)

    def report(self, ops):
        def rate(items, key):
            return sum(items(o) for o in ops) / sum(o.stats[key] for o in ops)

        return [("ingest_samples_per_s", rate(lambda o: o.items, "ingest_s"), "1/s"),
                ("eval_samples_per_s", rate(lambda o: o.items, "eval_s"), "1/s"),
                ("mesh_triangles_per_s", rate(lambda o: o.stats["triangles"], "mesh_s"),
                 "1/s")]


# ---------------------------------------------------------------------------
# query

UNPARSEABLE = ("the colour of the shaft is blue", "the finish of the link is polished",
               "the material of the rod is steel", "keep it light")


def text_variants(text, rng):
    """The canonical text as a designer might type it: as is, with its
    sentences shuffled, or with an extra sentence the schema cannot parse."""
    sentences = text.rstrip(".").split("; ")
    sentences[0] = sentences[0][0].lower() + sentences[0][1:]
    kind = rng.choice(["plain", "plain", "shuffled", "extra"])
    if kind == "shuffled":
        sentences = [sentences[i] for i in rng.permutation(len(sentences))]
    elif kind == "extra":
        sentences.insert(int(rng.integers(len(sentences) + 1)),
                         UNPARSEABLE[int(rng.integers(len(UNPARSEABLE)))])
    out = "; ".join(sentences) + "."
    return out[0].upper() + out[1:]


class Query(Workload):
    """Closed loop, one client: each query waits for the previous answer."""

    def __init__(self, *args):
        super().__init__(*args)
        # the samples behind the query texts are the benchmark's input, made
        # once; set-up is what a user pays to bring the index up
        sz = self.sizes
        pool = self.rf.dataset.generate_variants(
            bases=sz.query_bases, per_base=sz.query_per_base, seed=self.seed,
            with_grids=False)
        rng = np.random.default_rng([self.seed, 3])
        self.pool = [pool[i] for i in rng.permutation(len(pool))]

    def setup(self):
        sz, rt, pool = self.sizes, self.rf.retrieval, self.pool
        directory = self._fresh_dir("setup")
        rng = np.random.default_rng([self.seed, 2])
        self.checkpoint, self.vocab = self._checkpoint([s.text for s in pool], directory)

        gallery = rng.standard_normal((sz.gallery, 128)).astype(np.float32)
        gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
        ids = [f"R{i:05d}" for i in rng.permutation(sz.gallery)]
        # plant the exact embeddings of some queries twice each, the later
        # copy under the smaller id, so ties must be broken by id
        for i in rng.choice(len(pool), size=sz.planted, replace=False):
            a, b = sorted(rng.choice(sz.gallery, size=2, replace=False))
            gallery[a] = gallery[b] = self._embed(pool[i].text)
            if ids[a] < ids[b]:
                ids[a], ids[b] = ids[b], ids[a]
        texts = [pool[i % len(pool)].text for i in range(sz.gallery)]
        index = rt.ShapeIndex(ids, gallery, [""] * sz.gallery, texts,
                              self.checkpoint.fingerprint, RESOLUTION)
        rt.save_index(index, directory / "gallery.idx")
        self.index = rt.load_index(directory / "gallery.idx")
        self.queries = [(text_variants(s.text, rng), s) for s in pool]
        self.digest = corpus_digest(t.encode() for t, _ in self.queries)
        self.served = 0
        self._gallery64 = self.index.embeddings.astype(np.float64)
        self._ranks = id_ranks(self.index.ids)

    def _embed(self, canonical):
        """The checkpoint's text embedding of a canonical text, computed the
        way `retrieval.query` computes it."""
        seq = self.rf.dataset.tokenize(canonical, self.vocab,
                                       self.checkpoint.text.config.max_len)
        return self.rf.encoders.text_forward(
            self.checkpoint.text, seq.tokens[None, :], np.array([seq.true_length]))[0]

    def op(self):
        text, sample = self.queries[self.served % len(self.queries)]
        self.served += 1
        result, seconds = _timed(self.rf.retrieval.query, text, self.index,
                                 self.checkpoint, k=self.sizes.k)
        return Op(seconds, 1, data={"text": text, "sample": sample,
                                    "matches": result.matches})

    def check(self, op):
        sample = op.data["sample"]
        require(self.rf.taxonomy.parse_text(op.data["text"], lenient=True) == sample.spec,
                f"{sample.id}: parse_text(query) differs from the spec")
        rows, dists = reference_topk(self._embed(sample.text).astype(np.float64),
                                     self._gallery64, self._ranks, self.sizes.k)
        check_topk(op.data["matches"], self.index.ids, rows, dists)

    def report(self, ops):
        latencies = [o.seconds * 1e3 for o in ops]
        pct, tail = tail_percentile(latencies)
        return [("query_p50_ms", float(np.median(latencies)), "ms"),
                ("query_tail_ms", tail, f"ms (p{pct:g} of n={len(ops)})"),
                ("query_qps", len(ops) / sum(o.seconds for o in ops), "1/s")]


WORKLOADS = {"train": Train, "ingest": Ingest, "query": Query}
