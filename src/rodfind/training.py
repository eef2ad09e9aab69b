"""Bidirectional semi-hard triplet training of the joint embedding.

The batch loss is Loss = Loss_t2s + mu * Loss_s2t: each direction mines, per
anchor, the semi-hard negative with the smallest anchor-negative distance
(falling back to the hardest negative when no semi-hard one exists) and
averages the hinge over anchors.
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


@dataclass
class TrainerConfig:
    batch_size: int = 4
    learning_rate: float = 1e-3
    epochs: int = 10
    margin: float = 0.2
    mu: float = 1.0
    seed: int = 0
    optimizer: str = "adam"  # "adam" | "sgd"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 2:
            raise TrainingError("batch_size must be at least 2 (mining needs a negative)")
        for name in ("learning_rate", "margin", "mu", "beta1", "beta2", "eps"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise TrainingError(f"{name} must be finite, got {value}")
        if self.margin <= 0:
            raise TrainingError("margin must be positive")
        if self.mu < 0:
            raise TrainingError("mu must be nonnegative")
        if self.optimizer not in ("adam", "sgd"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")


# ---------------------------------------------------------------------------
# distances, hinge, triplet classification

def pairwise_distances(text_embs: np.ndarray, shape_embs: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, entry (i, j) = ||t_i - s_j||."""
    t = np.asarray(text_embs, dtype=np.float64)
    s = np.asarray(shape_embs, dtype=np.float64)
    if t.ndim != 2 or s.ndim != 2 or t.shape[1] != s.shape[1]:
        raise TrainingError(f"embedding shapes disagree: {t.shape} vs {s.shape}")
    sq = (t * t).sum(1)[:, None] + (s * s).sum(1)[None, :] - 2.0 * (t @ s.T)
    return np.sqrt(np.clip(sq, 0.0, None))


def triplet_loss(d_ap: float, d_an: float, margin: float) -> float:
    """Hinge on the anchor-positive vs anchor-negative gap."""
    return max(d_ap - d_an + margin, 0.0)


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


def _mine_direction(dist, ids, margin, direction):
    n = dist.shape[0]
    out = []
    for i in range(n):
        d_ap = dist[i, i]
        candidates = [j for j in range(n) if ids[j] != ids[i]]
        if not candidates:
            raise TrainingError(
                f"anchor {ids[i]!r} has no negative in the batch (all ids equal)")
        semi = [j for j in candidates if d_ap < dist[i, j] < d_ap + margin]
        pool = semi if semi else candidates
        j = min(pool, key=lambda j: (dist[i, j], j))
        out.append(Triplet(i, i, j, direction,
                           classify_triplet(d_ap, dist[i, j], margin)))
    return out


def mine_semihard(dists: np.ndarray, ids, margin: float) -> list[Triplet]:
    """Per anchor and direction: most-violating semi-hard negative (smallest
    d_an strictly inside the margin band), hardest negative as fallback."""
    dists = np.asarray(dists, dtype=np.float64)
    if dists.ndim != 2 or dists.shape[0] != dists.shape[1]:
        raise TrainingError(f"distance matrix must be square, got {dists.shape}")
    if dists.shape[0] < 2:
        raise TrainingError("mining needs a batch of at least 2")
    ids = list(ids)
    return (_mine_direction(dists, ids, margin, "t2s")
            + _mine_direction(dists.T, ids, margin, "s2t"))


def combined_loss_from_distances(dists, ids, margin, mu):
    triplets = mine_semihard(dists, ids, margin)
    dists = np.asarray(dists, dtype=np.float64)
    sums = {"t2s": 0.0, "s2t": 0.0}
    counts = {"t2s": 0, "s2t": 0}
    for trip in triplets:
        d = dists if trip.direction == "t2s" else dists.T
        sums[trip.direction] += triplet_loss(d[trip.anchor, trip.anchor],
                                             d[trip.anchor, trip.negative], margin)
        counts[trip.direction] += 1
    loss_t2s = sums["t2s"] / counts["t2s"]
    loss_s2t = sums["s2t"] / counts["s2t"]
    return loss_t2s + mu * loss_s2t, loss_t2s, loss_s2t, triplets


def combined_loss(tokens, lengths, grids, ids, text_params, shape_params,
                  config: TrainerConfig) -> float:
    """Forward-only evaluation of the bidirectional batch loss."""
    temb = enc.text_forward(text_params, tokens, lengths)
    semb = enc.shape_forward(shape_params, grids)
    dists = pairwise_distances(temb, semb)
    total, _, _, _ = combined_loss_from_distances(dists, ids, config.margin, config.mu)
    return total


def loss_and_gradients(tokens, lengths, grids, ids, text_params, shape_params,
                       config: TrainerConfig):
    """Batch loss plus exact reverse-mode gradients for every parameter, one
    buffer per encoder laid out like its `Params.flat`."""
    temb, tcache = enc.text_apply(text_params, tokens, lengths, with_cache=True)
    semb, scache = enc.shape_apply(shape_params, grids, with_cache=True)
    dists = pairwise_distances(temb, semb)
    if not np.isfinite(dists).all():
        raise TrainingError("non-finite distances in the forward pass")
    total, loss_t2s, loss_s2t, triplets = combined_loss_from_distances(
        dists, ids, config.margin, config.mu)

    n = temb.shape[0]
    d_t = np.zeros_like(temb, dtype=np.float64)
    d_s = np.zeros_like(semb, dtype=np.float64)
    t64 = temb.astype(np.float64)
    s64 = semb.astype(np.float64)
    for trip in triplets:
        i, j = trip.anchor, trip.negative
        if trip.direction == "t2s":
            d_ap, d_an = dists[i, i], dists[i, j]
            weight = 1.0 / n
            anchor, pos, neg = t64[i], s64[i], s64[j]
            g_anchor, g_pos, g_neg = d_t, d_s, d_s
        else:
            d_ap, d_an = dists[i, i], dists[j, i]
            weight = config.mu / n
            anchor, pos, neg = s64[i], t64[i], t64[j]
            g_anchor, g_pos, g_neg = d_s, d_t, d_t
        if d_ap - d_an + config.margin <= 0.0:
            continue  # inactive hinge: exact zero gradient
        if d_ap > 0.0:
            u = (anchor - pos) / d_ap
            g_anchor[i] += weight * u
            g_pos[i] -= weight * u
        if d_an > 0.0:
            v = (anchor - neg) / d_an
            g_anchor[i] -= weight * v
            g_neg[j] += weight * v

    dtype = text_params.flat.dtype
    text_grads = enc.text_backward(text_params, tcache, d_t.astype(dtype))
    shape_grads = enc.shape_backward(shape_params, scache, d_s.astype(dtype))
    return total, text_grads, shape_grads, {"t2s": loss_t2s, "s2t": loss_s2t,
                                            "triplets": triplets}


# ---------------------------------------------------------------------------
# optimizer

def _update(flat, grad, m, v, step, config):
    """One in-place step on a parameter buffer from its gradient and its
    Adam moments m and v, three buffers with the same layout."""
    if config.optimizer == "sgd":
        flat -= config.learning_rate * grad
        return
    b1, b2 = config.beta1, config.beta2
    # fold both bias corrections into the step size; a Python float keeps
    # the arithmetic in the parameters' dtype
    lr = float(config.learning_rate) * math.sqrt(1.0 - b2 ** step) / (1.0 - b1 ** step)
    tmp = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += tmp
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    v *= b2
    v += tmp
    np.sqrt(v, out=tmp)
    tmp += config.eps
    np.divide(m, tmp, out=tmp)
    tmp *= lr
    flat -= tmp


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


def _prepare(samples, vocab, max_len):
    seqs = [tokenize(s.text, vocab, max_len) for s in samples]
    tokens = np.stack([q.tokens for q in seqs])
    lengths = np.array([q.true_length for q in seqs])
    grids = np.stack([s.grid.occupancy for s in samples]).astype(np.float32)
    ids = [s.id for s in samples]
    return tokens, lengths, grids, ids


def fit(train_samples: list[Sample], val_samples: list[Sample],
        config: TrainerConfig,
        vocab: Vocabulary | None = None,
        text_config: enc.TextEncoderConfig | None = None,
        shape_config: enc.ShapeEncoderConfig | None = None) -> TrainResult:
    """Seeded mini-batch training with adaptive-moment updates.

    The vocabulary comes from the train texts unless one is supplied; batches
    reshuffle every epoch; the log records per-epoch train loss and
    validation recall@1.
    """
    if not train_samples:
        raise TrainingError("training set is empty")
    vocab = vocab or build_vocabulary(s.text for s in train_samples)
    text_config = text_config or enc.TextEncoderConfig(vocab.size)
    text_params, shape_params = enc.init_params(
        vocab.size, config.seed, text_config, shape_config)

    tokens, lengths, grids, ids = _prepare(train_samples, vocab, text_config.max_len)
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
        val_recall = (evaluate_recall(text_params, shape_params, val_samples, 1,
                                      vocab, text_config.max_len)
                      if val_samples else float("nan"))
        result.log.append(EpochLog(epoch, float(np.mean(losses)), val_recall,
                                   time.perf_counter() - started))
    return result


# ---------------------------------------------------------------------------
# retrieval-accuracy evaluation

def embed_texts(text_params, samples, vocab, max_len=None, chunk=64):
    max_len = max_len or text_params.config.max_len
    out = []
    for lo in range(0, len(samples), chunk):
        part = samples[lo:lo + chunk]
        seqs = [tokenize(s.text, vocab, max_len) for s in part]
        out.append(enc.text_forward(text_params,
                                    np.stack([q.tokens for q in seqs]),
                                    np.array([q.true_length for q in seqs])))
    return np.concatenate(out, axis=0)


def embed_shapes(shape_params, samples, chunk=64):
    out = []
    for lo in range(0, len(samples), chunk):
        part = samples[lo:lo + chunk]
        grids = np.stack([s.grid.occupancy for s in part]).astype(np.float32)
        out.append(enc.shape_forward(shape_params, grids))
    return np.concatenate(out, axis=0)


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
                    vocab: Vocabulary, max_len=None) -> float:
    """recall@k of each eval text against the eval set's own shape gallery."""
    if not samples:
        raise TrainingError("evaluation set is empty")
    text_embs = embed_texts(text_params, samples, vocab, max_len)
    shape_embs = embed_shapes(shape_params, samples)
    return recall_from_embeddings(text_embs, shape_embs, [s.id for s in samples], k)
