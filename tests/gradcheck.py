"""Central-difference gradient checks shared by the encoder, trainer and
acceptance tests.

A check is only evidence when its preconditions hold, so the helpers here
assert them instead of trusting a comment about how a fixture was chosen:

- no kink inside the stencil: for every checked coordinate, the ReLU masks,
  the max-pool winners, the mined negatives and the active hinges at
  theta +- h are those at theta, so the loss is smooth between the two
  evaluations and the central difference measures the derivative;
- a fixture that is not collapsed: the embeddings of the batch are spread,
  so the gradient is not a difference of nearly equal terms;
- a noise floor taken from the rounding error of the evaluated losses
  instead of a fixed constant: below it a central difference cannot
  resolve the relative tolerance, and the check compares absolutely.

Coordinates are picked by a seed derived from crc32 of the parameter name,
which is the same in every process (unlike the salted built-in hash()).
"""

from __future__ import annotations

import zlib

import numpy as np

from rodfind import encoders as enc
from rodfind import training as tr

RTOL = 1e-4
# Rounding error of one float64 loss evaluation, in units of eps times the
# loss scale. Every loss here is built from unit-norm embeddings, so the
# scale is max(1, |loss|). Measured on the fixtures of the tests: where the
# gradient is small enough for the truncation error to vanish, central
# differences at h=1e-5 differ from the analytic gradient by up to ~1 eps/h;
# 8 leaves room for other summation orders (BLAS builds, thread counts).
LOSS_ROUNDING_EPS = 8.0
# Unit-norm rows of a collapsed batch sit ~0.01 apart; spread fixtures at
# least ten times that.
MIN_SPREAD = 0.1


def pick_coordinates(name: str, size: int, picks: int | None):
    """`picks` distinct flat indices into parameter `name` (all of them when
    `picks` is None), the same in every process."""
    if picks is None or picks >= size:
        return range(size)
    rng = np.random.default_rng(zlib.crc32(name.encode("utf-8")))
    return rng.choice(size, size=picks, replace=False)


def noise_floor(up: float, down: float, h: float) -> float:
    """Gradient magnitude below which the central difference of `up` and
    `down` cannot resolve RTOL: a rounding error of up to `rounding` in each
    moves (up - down) / 2h by up to rounding / h."""
    rounding = LOSS_ROUNDING_EPS * np.finfo(np.float64).eps * max(1.0, abs(up), abs(down))
    return rounding / h / RTOL


def assert_spread(embeddings, what: str):
    """The fixture is not collapsed: every pair of rows is MIN_SPREAD apart."""
    e = np.asarray(embeddings, dtype=np.float64)
    gaps = np.linalg.norm(e[:, None] - e[None, :], axis=2)
    closest = gaps[~np.eye(len(e), dtype=bool)].min()
    assert closest >= MIN_SPREAD, (f"collapsed fixture: {what} embeddings only "
                                   f"{closest:.2e} apart (need {MIN_SPREAD})")


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def check_gradients(params_and_grads, evaluate, h: float, picks: int | None = None):
    """Worst relative error between analytic gradients and central
    differences, and the number of coordinates checked.

    `params_and_grads` lists (arrays, grads) pairs of dicts from parameter
    name to array; the arrays are perturbed in place, and `grads` holds the
    matching gradients. `evaluate()` returns (loss, kinks), where `kinks` is a tuple of
    arrays that fixes the smooth piece the loss is on. A coordinate whose
    stencil changes the kinks fails the check outright.
    """
    _, at_theta = evaluate()
    worst, checked = 0.0, 0
    for arrays, grads in params_and_grads:
        for name, array in arrays.items():
            flat = array.ravel()
            g = grads[name].ravel()
            for i in pick_coordinates(name, flat.size, picks):
                old = flat[i]
                flat[i] = old + h
                up, kinks_up = evaluate()
                flat[i] = old - h
                down, kinks_down = evaluate()
                flat[i] = old
                assert _same(kinks_up, at_theta) and _same(kinks_down, at_theta), (
                    f"{name}[{i}]: a kink falls inside the +-{h:g} stencil")
                fd = (up - down) / (2.0 * h)
                scale = max(noise_floor(up, down, h), abs(g[i]), abs(fd))
                worst = max(worst, abs(g[i] - fd) / scale)
                checked += 1
    return worst, checked


# ---------------------------------------------------------------------------
# kink signatures of the encoders and the trainer's loss

def text_kinks(tape):
    return tuple(cache for name, _, cache, _ in tape if "relu" in name)


def shape_kinks(tape):
    return tuple(cache if name != "pool" else cache[0] for name, _, cache, _ in tape
                 if "relu" in name or name == "pool")


def trainer_loss(tokens, lengths, grids, ids, tp, sp, config):
    """(loss, kinks) of the bidirectional batch loss: the loss that
    tr.loss_and_gradients returns, plus the encoders' kinks, the mined
    negatives and the active hinges."""
    temb, tcache = enc.text_apply(tp, tokens, lengths)
    semb, scache = enc.shape_apply(sp, grids)
    dists = tr.pairwise_distances(temb, semb)
    total, _, _, triplets, _ = tr._objective(dists, ids, config.margin, config.mu)
    mined = np.array([(t.negative, t.kind == tr.EASY) for t in triplets])
    return total, text_kinks(tcache) + shape_kinks(scache) + (mined,)
