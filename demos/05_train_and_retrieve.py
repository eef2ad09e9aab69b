"""End to end at desk scale: generate, train briefly, index, query.

A short run for demonstration (a few minutes on one CPU core); see the
acceptance suite for the full held-out evaluation.

Run: python demos/05_train_and_retrieve.py
"""

import tempfile
from pathlib import Path

from rodfind import dataset as ds
from rodfind import encoders as enc
from rodfind import retrieval as rt
from rodfind import training as tr

samples = ds.generate_variants(bases=2, per_base=12, seed=5)
train, val = ds.split_samples(samples, 0.25, seed=5)
print(f"{len(train)} train / {len(val)} val samples")

config = tr.TrainerConfig(batch_size=4, learning_rate=1e-3, epochs=12,
                          margin=0.5, seed=0)
result = tr.fit(train, val, config)
for row in result.log[::3]:
    print(f"  epoch {row.epoch:2d}: loss {row.train_loss:.3f}  "
          f"val recall@1 {row.val_recall1:.2f}")

with tempfile.TemporaryDirectory() as tmp:
    ckpt_path = Path(tmp) / "model.ckpt"
    enc.save_checkpoint(ckpt_path, result.text_params, result.shape_params,
                        result.vocab.word_to_id, {"demo": True})
    checkpoint = enc.load_checkpoint(ckpt_path)

    index = rt.build_index(samples, checkpoint)
    idx_path = Path(tmp) / "gallery.idx"
    rt.save_index(index, idx_path)
    index = rt.load_index(idx_path)

    probe = train[0]
    result_q = rt.query(probe.text, index, checkpoint, k=8)
    print(f"\ntop matches for {probe.id}'s own description:")
    for rank, (sample_id, dist) in enumerate(result_q.matches, 1):
        marker = " <-- itself" if sample_id == probe.id else ""
        print(f"  {rank}. {sample_id}  d={dist:.4f}{marker}")

    obj = rt.export_preview(probe.grid)
    print(f"\nOBJ preview of {probe.id}: {obj.count(b'v ')} vertex lines")
