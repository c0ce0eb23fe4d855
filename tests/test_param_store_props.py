"""Property tests of the parameter store both models share: one flat
array whose named views tile it in ``_param_shapes`` order, copies that
share no memory with their source, a bit-identical checkpoint round trip,
and a flat AdamW step equal, bit for bit, to a per-parameter loop."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gaitrerank.baseline import BaselineConfig, init_baseline, load_baseline, save_baseline
from gaitrerank.reranker import (
    RerankerConfig,
    init_weights,
    load_checkpoint,
    save_checkpoint,
)
from gaitrerank.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    adamw_step,
    init_adamw,
)

DTYPES = {"float32": np.float32, "float64": np.float64}

reranker_configs = st.builds(
    lambda s, d, heads, head_dim, blocks, classes, mlp: RerankerConfig(
        s=s, d=d, num_classes=classes, heads=heads, hidden=heads * head_dim, blocks=blocks,
        mlp_hidden=mlp),
    st.integers(1, 4), st.integers(1, 6), st.integers(1, 3), st.integers(1, 4),
    st.integers(1, 3), st.integers(1, 5), st.integers(1, 6),
)
baseline_configs = st.builds(BaselineConfig, st.integers(1, 4), st.integers(1, 6),
                             st.integers(1, 8))
# (config, init, save, load) of either model
models = st.one_of(
    reranker_configs.map(lambda c: (c, init_weights, save_checkpoint, load_checkpoint)),
    baseline_configs.map(lambda c: (c, init_baseline, save_baseline, load_baseline)),
)


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


@settings(max_examples=40, deadline=None)
@given(model=models, dtype=st.sampled_from(sorted(DTYPES)), seed=st.integers(0, 2**32 - 1))
def test_views_tile_the_flat_array_in_canonical_order(model, dtype, seed):
    config, init, _, _ = model
    w = init(config, seed=seed, dtype=DTYPES[dtype])
    assert w.flat.ndim == 1 and w.flat.flags.c_contiguous and w.dtype == w.flat.dtype
    shapes = list(type(w)._param_shapes(config))
    assert [(n, a.shape) for n, a in w.params().items()] == shapes
    offset = 0
    for name, arr in w.params().items():
        assert arr.base is w.flat, name
        assert address(arr) == address(w.flat) + offset * w.flat.itemsize, name
        offset += arr.size
    assert offset == w.flat.size == sum(math.prod(shape) for _, shape in shapes)
    assert w.params() is w.params()


@settings(max_examples=40, deadline=None)
@given(model=models, seed=st.integers(0, 2**32 - 1))
def test_copies_share_no_memory_with_their_source(model, seed):
    config, init, _, _ = model
    w = init(config, seed=seed)
    copies = [w.copy()]
    if hasattr(w, "zero_attention"):
        copies.append(w.zero_attention())
    for c in copies:
        assert type(c) is type(w) and c.config == w.config
        assert not np.shares_memory(c.flat, w.flat)
        assert all(a.base is c.flat for a in c.params().values())
    assert copies[0].flat.tobytes() == w.flat.tobytes()
    before = w.flat.copy()
    for c in copies:
        c.flat += 1
    assert w.flat.tobytes() == before.tobytes()


@settings(max_examples=30, deadline=None)
@given(model=models, dtype=st.sampled_from(sorted(DTYPES)), seed=st.integers(0, 2**32 - 1))
def test_save_then_load_is_bit_identical_and_writable(model, dtype, seed):
    config, init, save, load = model
    w = init(config, seed=seed, dtype=DTYPES[dtype])
    w.flat[:] = np.random.default_rng(seed).standard_normal(w.flat.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        save(w, path)
        back, back_config, meta = load(path)
    assert type(back) is type(w) and back_config == config == back.config and meta == {}
    assert back.dtype == w.dtype and back.flat.tobytes() == w.flat.tobytes()
    assert back.flat.flags.writeable
    assert all(a.base is back.flat for a in back.params().values())
    back.params()[next(iter(back.params()))][...] = 0


def ref_adamw_step(params, grads, m, v, t, cfg):
    """The per-parameter AdamW loop, on dicts of arrays."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, w in params.items():
        g = grads[name]
        w *= 1.0 - cfg.lr * cfg.weight_decay
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * (g * g)
        w -= cfg.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)


@settings(max_examples=30, deadline=None)
@given(model=models, seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 6),
       lr=st.sampled_from([1e-4, 3e-4, 1e-2, 0.5]), wd=st.sampled_from([0.0, 1e-4, 0.05]))
def test_flat_adamw_equals_the_per_parameter_loop_in_float32(model, seed, steps, lr, wd):
    config, init, _, _ = model
    cfg = TrainConfig(lr=lr, weight_decay=wd)
    w = init(config, seed=seed)
    ref = {k: p.copy() for k, p in w.params().items()}
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    state = init_adamw(w)
    rng = np.random.default_rng(seed)
    for t in range(1, steps + 1):
        grads = {k: rng.standard_normal(p.shape).astype(np.float32) for k, p in ref.items()}
        adamw_step(w, grads, state, cfg)
        ref_adamw_step(ref, grads, m, v, t, cfg)
    assert state.step == steps
    for name, p in w.params().items():
        assert p.dtype == np.float32 and p.tobytes() == ref[name].tobytes(), name
    assert state.m.tobytes() == np.concatenate([a.ravel() for a in m.values()]).tobytes()
    assert state.v.tobytes() == np.concatenate([a.ravel() for a in v.values()]).tobytes()
