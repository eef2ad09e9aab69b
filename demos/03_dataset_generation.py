"""Corpus generation: variants, vocabulary, tokenization, NRRD/CSV codecs.

Run: python demos/03_dataset_generation.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from rodfind import dataset as ds
from rodfind import parse_text

samples = ds.generate_variants(bases=3, per_base=40, seed=7)
print(f"{len(samples)} samples, ids {samples[0].id} .. {samples[-1].id}")
print("texts unique:", len({s.text for s in samples}) == len(samples))
print("every text parses back to its spec:",
      all(parse_text(s.text) == s.spec for s in samples[::7]))

vocab = ds.build_vocabulary(s.text for s in samples)
print(f"\nvocabulary: {vocab.size} ids (incl. PAD/UNK)")
seq = ds.tokenize(samples[0].text, vocab)
print(f"sample 0 tokenizes to {seq.true_length} words; first ten ids:",
      seq.tokens[:10].tolist())

unk = sum(int((ds.tokenize(s.text, vocab).tokens == ds.UNK_ID).sum()) for s in samples)
print("UNK tokens over the whole corpus:", unk)

nrrd = ds.write_nrrd(samples[0].grid)
print(f"\nNRRD for {samples[0].id}: {len(nrrd)} bytes, header:")
print("  " + nrrd.split(b"\n\n")[0].decode().replace("\n", "\n  "))
assert ds.read_nrrd(nrrd) == samples[0].grid

train, val = ds.split_samples(samples, 0.1, seed=7)
print(f"\nsplit: {len(train)} train / {len(val)} val, per base:",
      dict(Counter(s.id[:3] for s in val)))

rows = [ds.ManifestRow(s.id, s.text, f"grids/{s.id}.nrrd",
                       "val" if s in val else "train") for s in samples]
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    (out / "grids").mkdir()
    for s, row in zip(samples, rows):
        (out / row.nrrd_path).write_bytes(ds.write_nrrd(s.grid))
    ds.write_manifest(ds.DatasetManifest(rows), out / "manifest.csv")
    print("\nmanifest head:")
    print("  " + "\n  ".join((out / "manifest.csv").read_text(encoding="utf-8")
                             .splitlines()[:3]))
    assert ds.read_manifest(out / "manifest.csv").rows == rows
