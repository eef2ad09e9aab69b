"""The benchmark's own references: brute-force top-k and recall, round trips,
and the corpus digest. Nothing here calls rodfind's ranking code."""

from __future__ import annotations

import hashlib
import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def id_ranks(ids):
    """Lexicographic rank of each id, the tie-break key of every ranking."""
    return np.argsort(np.argsort(np.asarray(ids)))


def reference_topk(query64, gallery64, ranks, k):
    """Gallery rows nearest to `query64`: float64 Euclidean distance from
    the difference vectors, ties ordered by id. Returns (rows, distances)."""
    dists = np.sqrt(((gallery64 - query64) ** 2).sum(axis=1))
    rows = np.lexsort((ranks, dists))[:k]
    return rows, dists[rows]


def check_topk(matches, ids, rows, dists, atol=1e-6):
    """`matches` (id, distance) must list exactly the reference rows, in
    order, at the reference distances."""
    got = [m[0] for m in matches]
    want = [ids[r] for r in rows]
    require(got == want, f"top-{len(want)} ids {got} differ from reference {want}")
    got_d = np.array([m[1] for m in matches])
    require(np.allclose(got_d, dists, rtol=0.0, atol=atol),
            f"top-k distances {got_d} differ from reference {dists}")


def reference_recall(text_embs, shape_embs, ids, k):
    """recall@k: text i hits when fewer than k gallery shapes come before its
    own shape by (distance, id)."""
    t = np.asarray(text_embs, dtype=np.float64)
    s = np.asarray(shape_embs, dtype=np.float64)
    dists = np.sqrt(((t[:, None, :] - s[None, :, :]) ** 2).sum(axis=2))
    own = np.diag(dists)[:, None]
    ranks = id_ranks(ids)
    before = (dists < own) | ((dists == own) & (ranks[None, :] < ranks[:, None]))
    return int((before.sum(axis=1) < k).sum()) / len(ids)


def check_loss(loss, bound):
    require(math.isfinite(loss) and 0.0 <= loss <= bound,
            f"training loss {loss!r} outside [0, {bound}]")


def corpus_digest(chunks):
    """sha256 over the byte chunks, each length-prefixed so that no two
    different sequences of chunks share a digest."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def tail_percentile(values, beyond=10):
    """The highest percentile with at least `beyond` samples above it, as
    (percentile, value); the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1]
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]
