import tracemalloc

import numpy as np
import pytest

from gaitrerank import synth
from gaitrerank.feature_store import FeatureSet
from gaitrerank.synth import COVARIATE_SCALE, SIGMA_CENTER, SIGMA_ROWS, describe, generate


def ref_generate(identities, per_identity, s, d, hardness, noise, seed):
    """generate as a loop that draws and stores one sequence at a time:
    the chunked draws must give its strips bit for bit."""
    rng = np.random.default_rng(seed)
    bases = []
    for first in range(0, identities, 2):
        center = rng.normal(0.0, SIGMA_CENTER, size=d)
        rows = rng.normal(0.0, SIGMA_ROWS, size=(s, d))
        bases.append(center + rows)
        if first + 1 < identities:
            bases.append(center + np.roll(rows, 1, axis=0))
    covariate = COVARIATE_SCALE * hardness * noise
    strips = np.empty((identities * per_identity, s, d), dtype=np.float32)
    sequence_ids, identity_ids = [], []
    for i, base in enumerate(bases):
        blended = (1.0 - hardness) * base + hardness * base.mean(axis=0)
        ident = f"id{i:03d}"
        for t in range(per_identity):
            shift = covariate * rng.standard_normal(d)
            strips[i * per_identity + t] = blended + shift + noise * rng.standard_normal((s, d))
            sequence_ids.append(f"{ident}-{t:02d}")
            identity_ids.append(ident)
    return strips, tuple(sequence_ids), tuple(identity_ids)


@pytest.mark.parametrize(
    "identities, per_identity, s, d, hardness, noise",
    [
        (7, 3, 4, 8, 0.5, 0.2),  # odd identities: the last pair has one member
        (2, 2, 2, 1, 0.3, 0.1),  # the smallest set
        (3, 2, 5, 6, 0.7, 0.3),  # less than one chunk
        (9, 5, 3, 4, 0.7, 0.3),  # 45 sequences: ends mid-chunk
        (4, 4, 3, 2, 0.6, 0.4),  # exactly one chunk
        (6, 3, 9, 1, 0.7, 0.3),  # s = 9, d = 1: means over nine values
        (5, 4, 4, 6, 0.5, 0.0),  # no noise
        (5, 4, 4, 6, 0.0, 0.3),  # hardness 0: no blend, no covariate
        (5, 4, 4, 6, 1.0, 0.3),  # hardness 1: every base its mean row
        (40, 6, 8, 16, 0.7, 0.3),  # the pinned fixture
    ],
)
@pytest.mark.parametrize("chunk", [16, 5])
def test_generate_is_bitwise_the_per_sequence_loop(
    monkeypatch, identities, per_identity, s, d, hardness, noise, chunk
):
    monkeypatch.setattr(synth, "CHUNK_SEQUENCES", chunk)
    fs = generate(identities, per_identity, s, d, hardness, noise, seed=identities + s)
    strips, sequence_ids, identity_ids = ref_generate(
        identities, per_identity, s, d, hardness, noise, seed=identities + s
    )
    assert fs.strips.tobytes() == strips.tobytes()
    assert (fs.sequence_ids, fs.identity_ids) == (sequence_ids, identity_ids)


def test_generate_holds_its_output_and_one_block_of_bases():
    generate(4, 2, 16, 16, 0.7, 0.3, seed=5)  # one-time costs out of the trace
    tracemalloc.start()
    try:
        fs = generate(2000, 2, 16, 16, 0.7, 0.3, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 4.1 MB of strips, their ids and a few small buffers; the float64
    # bases of every identity held at once would take 4.1 MB more
    assert peak < fs.strips.nbytes + (1 << 20), peak


def test_generate_is_bitwise_deterministic():
    a = generate(6, 3, 4, 8, 0.5, 0.2, seed=123)
    b = generate(6, 3, 4, 8, 0.5, 0.2, seed=123)
    assert a.ids() == b.ids()
    for ea, eb in zip(a.entries, b.entries):
        assert ea.strips.tobytes() == eb.strips.tobytes()
    c = generate(6, 3, 4, 8, 0.5, 0.2, seed=124)
    assert any(
        ea.strips.tobytes() != ec.strips.tobytes()
        for ea, ec in zip(a.entries, c.entries)
    )


def test_generate_shapes_ids_and_dtype():
    fs = generate(5, 4, 3, 7, 0.3, 0.1, seed=0)
    assert len(fs) == 20
    assert (fs.s, fs.d) == (3, 7)
    assert fs.ids()[:4] == ["id000-00", "id000-01", "id000-02", "id000-03"]
    assert fs.identities() == [f"id{i:03d}" for i in range(5)]
    for e in fs.entries:
        assert e.strips.dtype == np.float32
        assert e.strips.shape == (3, 7)


def test_generate_argument_validation():
    with pytest.raises(ValueError):
        generate(1, 2, 4, 8, 0.5, 0.1, 0)
    with pytest.raises(ValueError):
        generate(4, 1, 4, 8, 0.5, 0.1, 0)
    with pytest.raises(ValueError):
        generate(4, 2, 1, 8, 0.5, 0.1, 0)
    with pytest.raises(ValueError):
        generate(4, 2, 4, 0, 0.5, 0.1, 0)
    with pytest.raises(ValueError):
        generate(4, 2, 4, 8, 1.5, 0.1, 0)
    with pytest.raises(ValueError):
        generate(4, 2, 4, 8, 0.5, -0.1, 0)


def test_clean_configuration_is_exactly_separable():
    """h=0 and zero noise collapse each identity onto its base map."""
    fs = generate(8, 3, 4, 6, 0.0, 0.0, seed=3)
    for ident in fs.identities():
        maps = [e.strips for e in fs.entries if e.identity_id == ident]
        for m in maps[1:]:
            assert m.tobytes() == maps[0].tobytes()
    summary = describe(fs)
    assert summary.rank1 == 1.0 and summary.rank10 == 1.0


def test_pair_partner_is_rolled_copy_in_clean_config():
    fs = generate(4, 2, 5, 6, 0.0, 0.0, seed=7)
    a = fs.get("id000-00").strips
    b = fs.get("id001-00").strips
    assert b.tobytes() == np.roll(a, 1, axis=0).tobytes()
    assert b.tobytes() != a.tobytes()
    # different pairs share nothing
    c = fs.get("id002-00").strips
    assert not np.allclose(np.roll(a, 1, axis=0), c)


def test_hardness_blend_preserves_mean_row_in_clean_config():
    base = generate(4, 2, 5, 6, 0.0, 0.0, seed=11)
    hard = generate(4, 2, 5, 6, 0.8, 0.0, seed=11)
    for sid in base.ids():
        m0 = base.get(sid).strips.astype(np.float64)
        m8 = hard.get(sid).strips.astype(np.float64)
        np.testing.assert_allclose(m8.mean(axis=0), m0.mean(axis=0), atol=1e-5)
        np.testing.assert_allclose(m8, 0.2 * m0 + 0.8 * m0.mean(axis=0), atol=1e-5)


def test_confusability_is_monotone_in_hardness():
    """Average Rank-1 over five seeds must not rise with hardness."""
    def mean_r1(h):
        return float(np.mean([
            describe(generate(40, 6, 8, 16, h, 0.3, seed)).rank1
            for seed in range(1, 6)
        ]))

    low, high = mean_r1(0.1), mean_r1(0.9)
    assert high <= low


def test_fixture_band_holds_for_pinned_seed():
    summary = describe(generate(40, 6, 8, 16, 0.7, 0.3, seed=1))
    assert summary.identity_count == 40
    assert all(c == 6 for c in summary.sequence_counts.values())
    assert summary.rank1 <= 0.75
    assert summary.rank10 >= 0.90


def test_describe_counts():
    fs = generate(3, 4, 4, 6, 0.2, 0.1, seed=2)
    summary = describe(fs)
    assert summary.identity_count == 3
    assert summary.sequence_counts == {"id000": 4, "id001": 4, "id002": 4}


def test_describe_is_entry_order_invariant():
    fs = generate(4, 3, 4, 6, 0.5, 0.2, seed=8)
    shuffled = FeatureSet.from_entries(fs.entries[::-1])
    assert describe(shuffled) == describe(fs)
