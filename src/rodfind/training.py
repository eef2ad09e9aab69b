"""Bidirectional semi-hard triplet training of the joint embedding.

The batch loss is Loss = Loss_t2s + mu * Loss_s2t: each direction mines, per
anchor, the semi-hard negative with the smallest anchor-negative distance
(falling back to the hardest negative when no semi-hard one exists) and
averages the hinge over anchors. `_objective` computes it, and its gradient
with respect to the batch's distance matrix, with one vectorized hinge;
`loss_and_gradients` is the one evaluation on a batch of tokens and grids.

The optimizer is Adam (Kingma & Ba, arXiv:1412.6980) with the published
constants beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import encoders as enc
from .dataset import Sample, Vocabulary, build_vocabulary, tokenize
from .errors import TrainingError

EASY = "easy"
HARD = "hard"
SEMI_HARD = "semi_hard"

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainerConfig:
    batch_size: int = 4
    learning_rate: float = 1e-3
    epochs: int = 10
    margin: float = 0.2
    mu: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise TrainingError("batch_size must be at least 2 (mining needs a negative)")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be at least 1, got {self.epochs}")
        for name in ("learning_rate", "margin", "mu"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise TrainingError(f"{name} must be finite, got {value}")
        for name in ("learning_rate", "margin"):
            if getattr(self, name) <= 0:
                raise TrainingError(f"{name} must be positive")
        if self.mu < 0:
            raise TrainingError("mu must be nonnegative")


# ---------------------------------------------------------------------------
# distances, triplet classification

def squared_norms(embs: np.ndarray) -> np.ndarray:
    """Per-row squared Euclidean norms of a float64 (N, D) array."""
    return (embs * embs).sum(1)


def pairwise_distances(text_embs: np.ndarray, shape_embs: np.ndarray,
                       shape_sq: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distance matrix, entry (i, j) = ||t_i - s_j||.

    `shape_sq`, when given, must be `squared_norms` of `shape_embs` as
    float64. A caller that queries one gallery many times keeps the float64
    rows and their norms, so each call is one matrix product against them."""
    t = np.asarray(text_embs, dtype=np.float64)
    s = np.asarray(shape_embs, dtype=np.float64)
    if t.ndim != 2 or s.ndim != 2 or t.shape[1] != s.shape[1]:
        raise TrainingError(f"embedding shapes disagree: {t.shape} vs {s.shape}")
    if shape_sq is None:
        shape_sq = squared_norms(s)
    sq = squared_norms(t)[:, None] + shape_sq[None, :] - 2.0 * (t @ s.T)
    return np.sqrt(np.clip(sq, 0.0, None))


def classify_triplet(d_ap: float, d_an: float, margin: float) -> str:
    """Partition of the (d_ap, d_an) plane; the boundaries d_an == d_ap and
    d_an == d_ap + margin resolve to hard and easy respectively."""
    if d_an <= d_ap:
        return HARD
    if d_an >= d_ap + margin:
        return EASY
    return SEMI_HARD


@dataclass(frozen=True)
class Triplet:
    anchor: int
    positive: int
    negative: int
    direction: str  # "t2s" | "s2t"
    kind: str


def mine_semihard(dists: np.ndarray, ids, margin: float) -> list[Triplet]:
    """Per anchor and direction: most-violating semi-hard negative (smallest
    d_an strictly inside the band d_ap < d_an < d_ap + margin), hardest
    negative as fallback, ties to the lowest index; candidates are the other
    ids. One masked row-argmin per direction."""
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 2 or dists.shape[0] != dists.shape[1]:
        raise TrainingError(f"distance matrix must be square, got {dists.shape}")
    if dists.shape[0] < 2:
        raise TrainingError("mining needs a batch of at least 2")
    ids = list(ids)
    codes = np.asarray(ids)
    other = codes[:, None] != codes[None, :]
    alone = ~other.any(axis=1)
    if alone.any():
        raise TrainingError(f"anchor {ids[alone.argmax()]!r} has no negative in the "
                            "batch (all ids equal)")
    rows = np.stack([dists, dists.T])  # per direction: anchor rows, negative columns
    d_ap = np.diagonal(dists)[:, None]
    semi = other & (rows > d_ap) & (rows < d_ap + margin)
    pool = np.where(semi.any(axis=2, keepdims=True), semi, other)
    negatives = np.where(pool, rows, np.inf).argmin(axis=2).tolist()
    return [Triplet(i, i, j, direction, classify_triplet(d[i, i], d[i, j], margin))
            for direction, d, row in zip(("t2s", "s2t"), rows, negatives)
            for i, j in enumerate(row)]


def _objective(dists, ids, margin, mu):
    """Loss = Loss_t2s + mu * Loss_s2t, its mined triplets, and G = dLoss/d
    dists: +w at (i, i) and -w at the mined (i, j) (t2s) or (j, i) (s2t) of
    every active hinge, with w = 1/n for t2s and mu/n for s2t."""
    triplets = mine_semihard(dists, ids, margin)
    dists = np.asarray(dists, dtype=np.float64)
    n = dists.shape[0]
    anchors = np.arange(n)
    neg_t2s, neg_s2t = np.array([t.negative for t in triplets]).reshape(2, n)
    d_an = np.stack([dists[anchors, neg_t2s], dists[neg_s2t, anchors]])
    hinge = np.diagonal(dists) - d_an + margin
    loss_t2s, loss_s2t = np.maximum(hinge, 0.0).mean(axis=1).tolist()
    w = np.array([[1.0 / n], [mu / n]]) * (hinge > 0.0)
    grad = np.diag(w.sum(axis=0))
    grad[anchors, neg_t2s] -= w[0]
    grad[neg_s2t, anchors] -= w[1]
    return loss_t2s + mu * loss_s2t, loss_t2s, loss_s2t, triplets, grad


def loss_and_gradients(tokens, lengths, grids, ids, text_params, shape_params,
                       config: TrainerConfig):
    """Batch loss plus exact reverse-mode gradients for every parameter, one
    buffer per encoder laid out like its `Params.flat`."""
    temb, tcache = enc.text_apply(text_params, tokens, lengths)
    semb, scache = enc.shape_apply(shape_params, grids)
    dists = pairwise_distances(temb, semb)
    if not np.isfinite(dists).all():
        raise TrainingError("non-finite distances in the forward pass")
    total, loss_t2s, loss_s2t, triplets, grad = _objective(
        dists, ids, config.margin, config.mu)

    # backward of the distance layer d_ij = ||t_i - s_j||
    m = np.divide(grad, dists, out=np.zeros_like(grad), where=dists > 0.0)
    t64 = temb.astype(np.float64)
    s64 = semb.astype(np.float64)
    d_t = m.sum(axis=1)[:, None] * t64 - m @ s64
    d_s = m.sum(axis=0)[:, None] * s64 - m.T @ t64

    dtype = text_params.flat.dtype
    text_grads = enc.text_backward(text_params, tcache, d_t.astype(dtype))
    shape_grads = enc.shape_backward(shape_params, scache, d_s.astype(dtype))
    return total, text_grads, shape_grads, {"t2s": loss_t2s, "s2t": loss_s2t,
                                            "triplets": triplets}


# ---------------------------------------------------------------------------
# optimizer

# The update makes about a dozen passes over its buffers; run over blocks
# this long, the parameters, gradient, moments and scratch of one block
# (5 x 256 KB in float32) stay in a 2 MB L2 cache through all of them.
UPDATE_BLOCK = 1 << 16


def _update(flat, grad, m, v, step, config):
    """One in-place step on a parameter buffer from its gradient and its
    Adam moments m and v, three buffers with the same layout. Each element's
    arithmetic is the same whether or not the buffers are cut into blocks."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # fold both bias corrections into the step size; a Python float keeps
    # the arithmetic in the parameters' dtype
    lr = float(config.learning_rate) * math.sqrt(1.0 - b2 ** step) / (1.0 - b1 ** step)
    scratch = np.empty(min(UPDATE_BLOCK, flat.size), dtype=flat.dtype)
    for lo in range(0, flat.size, UPDATE_BLOCK):
        block = slice(lo, lo + UPDATE_BLOCK)
        p, g, m_b, v_b = flat[block], grad[block], m[block], v[block]
        tmp = scratch[:p.size]
        np.multiply(g, 1.0 - b1, out=tmp)
        m_b *= b1
        m_b += tmp
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v_b *= b2
        v_b += tmp
        np.sqrt(v_b, out=tmp)
        tmp += ADAM_EPS
        np.divide(m_b, tmp, out=tmp)
        tmp *= lr
        p -= tmp


# ---------------------------------------------------------------------------
# training loop

@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_recall1: float
    wall_seconds: float


@dataclass
class TrainResult:
    text_params: enc.Params
    shape_params: enc.Params
    vocab: Vocabulary
    log: list[EpochLog] = field(default_factory=list)


def _token_batch(samples, vocab, max_len):
    """The samples' texts as a (B, max_len) token matrix and B lengths."""
    seqs = [tokenize(s.text, vocab, max_len) for s in samples]
    return np.stack([q.tokens for q in seqs]), np.array([q.true_length for q in seqs])


def fit(train_samples: list[Sample], val_samples: list[Sample],
        config: TrainerConfig,
        shape_config: enc.ShapeEncoderConfig | None = None) -> TrainResult:
    """Seeded mini-batch training with adaptive-moment updates.

    The vocabulary comes from the train texts; batches reshuffle every
    epoch; the log records per-epoch train loss and validation recall@1.
    """
    if not train_samples:
        raise TrainingError("training set is empty")
    if len(train_samples) < 2:
        raise TrainingError("training needs at least 2 samples (mining needs a negative)")
    vocab = build_vocabulary(s.text for s in train_samples)
    text_params, shape_params = enc.init_params(
        vocab.size, config.seed, shape_config=shape_config)

    tokens, lengths = _token_batch(train_samples, vocab, text_params.config.max_len)
    grids = np.stack([s.grid.occupancy for s in train_samples])
    ids = [s.id for s in train_samples]
    rng = np.random.default_rng(config.seed)
    # Adam's first and second moments, laid out like each encoder's buffer
    moments = [(np.zeros_like(p.flat), np.zeros_like(p.flat))
               for p in (text_params, shape_params)]

    result = TrainResult(text_params, shape_params, vocab)
    step = 0
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_samples))
        losses = []
        for lo in range(0, len(order), config.batch_size):
            pick = order[lo:lo + config.batch_size]
            if len(pick) < 2:
                continue  # a single-sample remainder has no negative
            batch_ids = [ids[i] for i in pick]
            loss, tg, sg, _ = loss_and_gradients(
                tokens[pick], lengths[pick], grids[pick], batch_ids,
                text_params, shape_params, config)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss on batch {batch_ids}")
            step += 1
            for params, grad, (m, v) in zip((text_params, shape_params), (tg, sg), moments):
                _update(params.flat, grad, m, v, step, config)
            losses.append(loss)
        val_recall = (evaluate_recall(text_params, shape_params, val_samples, 1, vocab)
                      if val_samples else float("nan"))
        result.log.append(EpochLog(epoch, float(np.mean(losses)), val_recall,
                                   time.perf_counter() - started))
    return result


# ---------------------------------------------------------------------------
# retrieval-accuracy evaluation

# Samples per encoder call when embedding a split. From 8 to 128 the time
# per sample stays at 5-7 ms (one BLAS thread, 2-vCPU VM), but the shape
# forward's peak memory grows 2.65 MB per grid (tracemalloc, float32: 21 MB
# at 8, 170 MB at 64, 339 MB at 128); other sizes also round the GEMMs
# differently in the last bits.
EMBED_CHUNK = 64


def _chunks(samples):
    if not samples:
        raise TrainingError("evaluation set is empty")
    return (samples[lo:lo + EMBED_CHUNK] for lo in range(0, len(samples), EMBED_CHUNK))


def embed_texts(text_params, samples, vocab):
    max_len = text_params.config.max_len
    return np.concatenate([enc.text_forward(text_params, *_token_batch(part, vocab, max_len))
                           for part in _chunks(samples)])


def embed_shapes(shape_params, samples):
    return np.concatenate([
        enc.shape_forward(shape_params, np.stack([s.grid.occupancy for s in part]))
        for part in _chunks(samples)])


def recall_from_embeddings(text_embs, shape_embs, ids, k: int) -> float:
    """Fraction of texts whose own shape ranks in the top k by distance,
    ties broken by ascending sample id."""
    if k < 1:
        raise TrainingError("k must be at least 1")
    if len(ids) == 0:
        raise TrainingError("evaluation set is empty")
    dists = pairwise_distances(text_embs, shape_embs)
    id_rank = np.argsort(np.argsort(ids))  # lexicographic rank per gallery entry
    # rank of text i's own shape under the (distance, id) order: the entries
    # strictly closer, plus the equally close ones with a smaller id
    own = np.diag(dists)[:, None]
    ahead = (dists < own) | ((dists == own) & (id_rank[None, :] < id_rank[:, None]))
    hits = int((ahead.sum(axis=1) < k).sum())
    return hits / len(ids)


def evaluate_recall(text_params, shape_params, samples: list[Sample], k: int,
                    vocab: Vocabulary) -> float:
    """recall@k of each eval text against the eval set's own shape gallery."""
    text_embs = embed_texts(text_params, samples, vocab)
    shape_embs = embed_shapes(shape_params, samples)
    return recall_from_embeddings(text_embs, shape_embs, [s.id for s in samples], k)
