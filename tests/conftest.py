import builtins
import errno

import numpy as np
import pytest

from gaitrerank.feature_store import FeatureMap, FeatureSet

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves
    pass
else:
    # Tier-1 draws the same examples on every run; ``--hypothesis-profile
    # explore`` draws fresh ones, as a separate CI step does. A test's own
    # @settings take their unset values from the profile loaded here,
    # before the test modules are imported.
    settings.register_profile("tier1", derandomize=True)
    settings.register_profile("explore", derandomize=False)
    settings.load_profile("tier1")


def make_maps(n_ids, per_id, s, d, seed=0, prefix="id"):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n_ids):
        ident = f"{prefix}{i:03d}"
        for t in range(per_id):
            entries.append(
                FeatureMap(
                    sequence_id=f"{ident}-{t:02d}",
                    identity_id=ident,
                    strips=rng.standard_normal((s, d)).astype(np.float32),
                )
            )
    return entries


@pytest.fixture
def small_set():
    """Six identities, three sequences each, 4x6 strips."""
    return FeatureSet.from_entries(make_maps(6, 3, 4, 6, seed=11))


class DiskFullAfter:
    """``open`` for the writer: the ``fail_at``-th file opened takes half
    of what it is given, then fails as a full disk would."""

    def __init__(self, fail_at: int):
        self.fail_at = fail_at
        self.opened = 0

    def __call__(self, path, mode, **kwargs):
        fh = builtins.open(path, mode, **kwargs)
        self.opened += 1
        if self.opened - 1 != self.fail_at:
            return fh

        class Failing:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                fh.close()

            def write(self, data):
                fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        return Failing()
