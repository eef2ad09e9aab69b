import os
import subprocess
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads: the pool size changes the
# order of floating-point sums, so trained figures would depend on the host
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from rodfind import LinkingRodSpec  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent


def _worktree_state():
    """(size, mtime) of every file under the repo root that git tracks or
    does not ignore; None outside a git checkout."""
    try:
        listed = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    state = {}
    for name in filter(None, listed.decode("utf-8", "surrogateescape").split("\0")):
        try:
            stat = (REPO_ROOT / name).stat()
            state[name] = (stat.st_size, stat.st_mtime_ns)
        except FileNotFoundError:  # tracked, deleted in the working tree
            state[name] = None
    return state


@pytest.fixture(scope="session", autouse=True)
def worktree_untouched():
    """Fail the run if the suite creates, changes or deletes a file under
    the repo root that git tracks or does not ignore; tests write under
    tmp_path only."""
    before = _worktree_state()
    yield
    after = _worktree_state()
    if before is None or after is None:
        return
    changed = sorted(name for name in before.keys() | after.keys()
                     if before.get(name, "absent") != after.get(name, "absent"))
    assert not changed, (f"the test suite touched {len(changed)} file(s) in the "
                         f"working tree: {changed[:10]}")


@pytest.fixture
def cuboid_rod_spec():
    return LinkingRodSpec(
        structure={"link": {"main structure": "binary link"},
                   "shaft": {"main structure": "cuboid"}},
        sizes={"shaft": {"length": "large", "width": "medium", "thickness": "medium"},
               "first pivot hole": {"inner diameter": "medium",
                                    "outer diameter": "large", "depth": "large"},
               "second pivot hole": {"inner diameter": "medium",
                                     "outer diameter": "medium", "depth": "small"}})


@pytest.fixture
def arc_rod_spec():
    return LinkingRodSpec(
        structure={"link": {"main structure": "binary link"},
                   "shaft": {"main structure": "arc-shaped vertical slab",
                             "cross section": "rectangle"}},
        sizes={"shaft": {"radius": "large", "length": "medium", "thickness": "large"},
               "first pivot hole": {"inner diameter": "large",
                                    "outer diameter": "large", "depth": "large"},
               "second pivot hole": {"inner diameter": "large",
                                     "outer diameter": "large", "depth": "large"}})


@pytest.fixture
def unlinked_three_hole_spec():
    """No link entity, a shaft, and pivot holes from two naming pairs: the
    hole and shaft rules apply to it all the same."""
    hole = {"outer diameter": "large", "depth": "medium"}
    return LinkingRodSpec(
        structure={"shaft": {"main structure": "cuboid"}},
        sizes={"shaft": {"length": "large", "width": "medium", "thickness": "medium"},
               "first pivot hole": {"inner diameter": "medium", **hole},
               "larger pivot hole": {"inner diameter": "large", **hole},
               "smaller pivot hole": {"inner diameter": "small", **hole}})


def random_mesh(rng: np.random.Generator, triangles: int):
    from rodfind.geometry import TriangleMesh

    return TriangleMesh(
        rng.normal(size=(triangles, 3)).astype(np.float32),
        rng.normal(scale=10.0, size=(triangles, 3, 3)).astype(np.float32),
        rng.integers(0, 2 ** 16, size=triangles).astype(np.uint16))
