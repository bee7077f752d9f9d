import itertools

import numpy as np
import pytest

from ttqaoa.tt import (
    CHECKPOINT_MAGIC,
    INIT_FLOOR,
    VALUE_FLOOR,
    TTDistribution,
    ascent_step,
    load_tt_text,
    log_value_grad,
    random_tt,
    right_marginals,
    sample,
    sample_batch,
    sample_squared,
    sample_squared_batch,
    save_tt_text,
    suffix_grams,
    total_mass,
    tt_value,
)


def dense_tensor(t):
    """Contract the full chain into a dense d-way array."""
    out = t.cores[0]
    for core in t.cores[1:]:
        out = np.tensordot(out, core, axes=([out.ndim - 1], [0]))
    return out.reshape(t.shape)


def signed_tt(d, n_nodes, rank, seed):
    rng = np.random.default_rng(seed)
    cores = []
    for k in range(d):
        left = 1 if k == 0 else rank
        right = 1 if k == d - 1 else rank
        cores.append(rng.standard_normal((left, n_nodes, right)))
    return TTDistribution(cores)


def one_hot_tt(shape, idx):
    cores = []
    for n, i in zip(shape, idx):
        core = np.zeros((1, n, 1))
        core[0, i, 0] = 1.0
        cores.append(core)
    return TTDistribution(cores)


# Per-sample and per-index loops, kept as references for the batched kernels:
# one rng.choice call per draw, one interface sweep per index.


def ref_sample(t, rng, marginals, diagnostics):
    phi = np.ones(1)
    out = []
    for k in range(t.d):
        weights = np.einsum("r,rns,s->n", phi, t.cores[k], marginals[k + 1])
        weights = np.clip(weights, 0.0, None)
        mass = weights.sum()
        if mass <= 0.0:
            diagnostics["uniform_fallbacks"] = diagnostics.get("uniform_fallbacks", 0) + 1
            weights = np.full(weights.size, 1.0)
            mass = float(weights.size)
        i = int(rng.choice(weights.size, p=weights / mass))
        out.append(i)
        phi = phi @ t.cores[k][:, i, :]
        peak = np.max(np.abs(phi))
        if peak > 0.0:
            phi = phi / peak
    return tuple(out)


def ref_sample_squared(t, rng, grams, diagnostics):
    phi = np.ones(1)
    out = []
    for k in range(t.d):
        vecs = np.einsum("r,rns->ns", phi, t.cores[k])
        weights = np.einsum("ns,st,nt->n", vecs, grams[k + 1], vecs)
        weights = np.clip(weights, 0.0, None)
        mass = weights.sum()
        if mass <= 0.0:
            diagnostics["uniform_fallbacks"] = diagnostics.get("uniform_fallbacks", 0) + 1
            weights = np.full(weights.size, 1.0)
            mass = float(weights.size)
        i = int(rng.choice(weights.size, p=weights / mass))
        out.append(i)
        phi = vecs[i]
        peak = np.max(np.abs(phi))
        if peak > 0.0:
            phi = phi / peak
    return tuple(out)


def ref_batch(t, count, rng, squared):
    diagnostics = {}
    if squared:
        grams = suffix_grams(t)
        return [ref_sample_squared(t, rng, grams, diagnostics) for _ in range(count)], diagnostics
    marginals = right_marginals(t)
    return [ref_sample(t, rng, marginals, diagnostics) for _ in range(count)], diagnostics


def ref_interfaces(t, idx):
    pre = [np.ones(1)]
    for k in range(t.d):
        pre.append(pre[k] @ t.cores[k][:, idx[k], :])
    suf = [np.ones(1)] * (t.d + 1)
    for k in range(t.d - 1, -1, -1):
        suf[k] = t.cores[k][:, idx[k], :] @ suf[k + 1]
    return pre, suf, float(pre[t.d][0])


def ref_log_value_grad(t, idx):
    pre, suf, value = ref_interfaces(t, idx)
    grads = []
    for k, core in enumerate(t.cores):
        g = np.zeros_like(core)
        g[:, idx[k], :] = np.outer(pre[k], suf[k + 1]) / value
        grads.append(g)
    return grads


def ref_ascent_step(t, batch, learning_rate, step_count):
    diagnostics = {"clamped_values": 0}
    for _ in range(step_count):
        accum = [np.zeros_like(core) for core in t.cores]
        for idx in batch:
            pre, suf, value = ref_interfaces(t, idx)
            if value <= 0.0:
                value = VALUE_FLOOR
                diagnostics["clamped_values"] += 1
            for k in range(t.d):
                accum[k][:, idx[k], :] += np.outer(pre[k], suf[k + 1]) / value
        for k in range(t.d):
            t.cores[k] += learning_rate * accum[k]
    return diagnostics


def copy_tt(t):
    return TTDistribution([core.copy() for core in t.cores])


def assert_cores_close(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def empirical_tv(draws, probs):
    counts = np.zeros(probs.size)
    for idx in draws:
        counts[np.ravel_multi_index(idx, probs.shape)] += 1
    return 0.5 * np.abs(counts / len(draws) - probs.ravel()).sum()


def test_validation_errors():
    with pytest.raises(ValueError):
        TTDistribution([])
    with pytest.raises(ValueError):
        TTDistribution([np.ones((1, 3))])
    with pytest.raises(ValueError):
        TTDistribution([np.ones((2, 3, 1))])
    with pytest.raises(ValueError):
        TTDistribution([np.ones((1, 3, 2))])
    with pytest.raises(ValueError):
        TTDistribution([np.ones((1, 3, 2)), np.ones((3, 3, 1))])
    with pytest.raises(ValueError, match="node"):
        TTDistribution([np.ones((1, 0, 1))])


def test_random_tt_shapes_and_range():
    t = random_tt(4, 100, 5, np.random.default_rng(0))
    assert t.d == 4
    assert t.shape == (100, 100, 100, 100)
    assert t.ranks == (1, 5, 5, 5, 1)
    assert [c.shape for c in t.cores] == [(1, 100, 5), (5, 100, 5), (5, 100, 5), (5, 100, 1)]
    for core in t.cores:
        assert core.min() >= INIT_FLOOR
        assert core.max() < 1.0
    again = random_tt(4, 100, 5, np.random.default_rng(0))
    assert all(np.array_equal(a, b) for a, b in zip(t.cores, again.cores))
    for bad in ((0, 3, 2), (2, 1, 2), (2, 3, 0)):
        with pytest.raises(ValueError):
            random_tt(*bad, np.random.default_rng(0))


def test_tt_value_closed_forms():
    ones = TTDistribution([np.ones((1, 3, 2)), np.ones((2, 3, 2)), np.ones((2, 3, 1))])
    assert tt_value(ones, (0, 1, 2)) == 4.0
    u = np.array([1.5, -2.0, 0.25])
    v = np.array([3.0, 0.5, -1.0])
    outer = TTDistribution([u.reshape(1, 3, 1), v.reshape(1, 3, 1)])
    for i, j in itertools.product(range(3), repeat=2):
        assert tt_value(outer, (i, j)) == u[i] * v[j]


def test_tt_value_matches_dense_contraction():
    for seed in range(3):
        t = signed_tt(3, 4, 3, seed)
        dense = dense_tensor(t)
        for idx in itertools.product(*(range(n) for n in t.shape)):
            assert abs(tt_value(t, idx) - dense[idx]) <= 1e-12 * max(1.0, abs(dense[idx]))


def test_tt_value_index_errors():
    t = random_tt(2, 3, 2, np.random.default_rng(1))
    with pytest.raises(ValueError):
        tt_value(t, (0,))
    with pytest.raises(ValueError):
        tt_value(t, (0, 3))
    with pytest.raises(ValueError):
        tt_value(t, (-1, 0))
    for bad, axis in (((2.7, 1), 0), ((-0.5, 1), 0), ((1, 2.0), 1), ((0, np.float64(1.0)), 1)):
        with pytest.raises(ValueError, match=f"axis {axis}"):
            tt_value(t, bad)
    with pytest.raises(ValueError, match="axis 0"):
        log_value_grad(t, (1.9, 2))
    assert tt_value(t, (np.int64(2), np.int32(1))) == tt_value(t, (2, 1))


def test_right_marginals_and_total_mass():
    ones = TTDistribution([np.ones((1, 3, 1)) for _ in range(3)])
    z = right_marginals(ones)
    assert [float(v[0]) for v in z] == [27.0, 9.0, 3.0, 1.0]
    assert total_mass(ones) == 27.0

    t = random_tt(3, 4, 3, np.random.default_rng(2))
    dense = dense_tensor(t)
    assert abs(total_mass(t) - dense.sum()) <= 1e-10 * abs(dense.sum())

    single = TTDistribution([np.array([[[2.0], [3.0]]])])
    assert total_mass(single) == 5.0


def test_sample_point_mass():
    t = one_hot_tt((4, 3, 5), (2, 0, 4))
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample(t, rng) == (2, 0, 4)
        assert sample_squared(t, rng) == (2, 0, 4)


def test_sample_tv_against_dense():
    t = random_tt(3, 4, 3, np.random.default_rng(3))
    dense = dense_tensor(t)
    probs = dense / dense.sum()
    draws, diag = sample_batch(t, 20000, np.random.default_rng(4))
    assert len(draws) == 20000
    assert diag.get("uniform_fallbacks", 0) == 0
    assert empirical_tv(draws, probs) < 0.05


def test_sample_squared_tv_against_dense():
    # Signed cores: the squared scheme must target the squared entries.
    t = signed_tt(3, 4, 3, 8)
    dense = dense_tensor(t) ** 2
    probs = dense / dense.sum()
    draws, _ = sample_squared_batch(t, 20000, np.random.default_rng(6))
    assert empirical_tv(draws, probs) < 0.05


def test_sample_clamps_negative_conditionals():
    core = np.array([2.0, -1.0, 3.0, 0.0]).reshape(1, 4, 1)
    t = TTDistribution([core])
    rng = np.random.default_rng(7)
    draws = [sample(t, rng)[0] for _ in range(5000)]
    assert set(draws) <= {0, 2}
    frac = draws.count(2) / len(draws)
    sigma = (0.6 * 0.4 / 5000) ** 0.5
    assert abs(frac - 0.6) <= 5 * sigma


def test_sample_uniform_fallback_on_zero_mass():
    t = TTDistribution([np.zeros((1, 3, 1))])
    diag = {}
    rng = np.random.default_rng(8)
    draws = {sample(t, rng, diagnostics=diag)[0] for _ in range(200)}
    assert diag["uniform_fallbacks"] == 200
    assert draws == {0, 1, 2}
    diag = {}
    sample_squared(t, np.random.default_rng(9), diagnostics=diag)
    assert diag["uniform_fallbacks"] == 1


def random_shape_tts():
    """Random shapes with positive, signed and zero-mass cores."""
    rng = np.random.default_rng(21)
    for case in range(30):
        d, n_nodes, rank = int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(1, 4))
        t = random_tt(d, n_nodes, rank, rng) if case % 2 else signed_tt(d, n_nodes, rank, case)
        yield t, int(rng.integers(1, 40))
    # Every conditional vanishes: uniform fallback at each axis of each draw.
    yield TTDistribution([np.zeros((1, 3, 2)), np.zeros((2, 4, 1))]), 25
    # Core 1 sums to zero over its nodes, so the linear scheme's first
    # conditional vanishes and the draws go on from uniform first nodes.
    rng = np.random.default_rng(22)
    half = rng.standard_normal((2, 3, 2))
    yield TTDistribution([rng.random((1, 4, 2)), np.concatenate([half, -half], axis=1), rng.random((2, 5, 1))]), 25


def test_batched_draws_match_sequential_reference():
    fallbacks = {False: 0, True: 0}
    for case, (t, count) in enumerate(random_shape_tts()):
        for squared, batch_fn, single_fn in (
            (False, sample_batch, sample),
            (True, sample_squared_batch, sample_squared),
        ):
            want, want_diag = ref_batch(t, count, np.random.default_rng(case), squared)
            got, got_diag = batch_fn(t, count, np.random.default_rng(case))
            assert got == want
            assert got_diag.get("uniform_fallbacks", 0) == want_diag.get("uniform_fallbacks", 0)
            # Single draws from one generator continue the same stream.
            rng = np.random.default_rng(case)
            single_diag = {}
            assert [single_fn(t, rng, diagnostics=single_diag) for _ in range(count)] == want
            assert single_diag.get("uniform_fallbacks", 0) == want_diag.get("uniform_fallbacks", 0)
            fallbacks[squared] += want_diag.get("uniform_fallbacks", 0)
    assert min(fallbacks.values()) > 0


def ref_suffix_grams(t):
    """The three-operand einsum form of suffix_grams, kept as its reference."""
    grams = [np.ones((1, 1))] * (t.d + 1)
    for k in range(t.d - 1, -1, -1):
        m = np.einsum("rns,st,qnt->rq", t.cores[k], grams[k + 1], t.cores[k])
        peak = np.max(np.abs(m))
        grams[k] = m / peak if peak > 0.0 else m
    return grams


def test_suffix_grams_match_einsum_reference():
    cases = [t for t, _ in random_shape_tts()]
    cases += [random_tt(8, 100, 5, np.random.default_rng(23)), signed_tt(8, 100, 5, 24)]
    for t in cases:
        for got, want in zip(suffix_grams(t), ref_suffix_grams(t), strict=True):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sample_rejects_non_finite_weights():
    for bad in (np.inf, np.nan):
        t = TTDistribution([np.array([1.0, bad, 2.0]).reshape(1, 3, 1), np.ones((1, 2, 1))])
        with np.errstate(invalid="ignore"):
            for fn in (sample, sample_squared):
                with pytest.raises(ValueError):
                    fn(t, np.random.default_rng(0))
            for fn in (sample_batch, sample_squared_batch):
                with pytest.raises(ValueError):
                    fn(t, 5, np.random.default_rng(0))


def test_sample_squared_scale_invariant():
    t = signed_tt(3, 5, 2, 10)
    scaled = TTDistribution([c * s for c, s in zip(t.cores, (7.0, 0.01, 300.0))])
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    a = [sample_squared(t, rng_a) for _ in range(50)]
    b = [sample_squared(scaled, rng_b) for _ in range(50)]
    assert a == b
    assert len(set(a)) > 1


def test_sample_batch_count_guard():
    t = random_tt(2, 3, 2, np.random.default_rng(12))
    with pytest.raises(ValueError):
        sample_batch(t, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_squared_batch(t, 0, np.random.default_rng(0))


def test_log_value_grad_single_axis():
    core = np.array([0.5, 2.0, 4.0]).reshape(1, 3, 1)
    t = TTDistribution([core])
    grads = log_value_grad(t, (1,))
    expected = np.zeros((1, 3, 1))
    expected[0, 1, 0] = 1.0 / 2.0
    assert np.allclose(grads[0], expected)


def test_log_value_grad_matches_finite_differences():
    t = random_tt(3, 4, 3, np.random.default_rng(13))
    idx = (2, 0, 3)
    grads = log_value_grad(t, idx)
    rng = np.random.default_rng(14)
    h = 1e-6
    for _ in range(20):
        k = int(rng.integers(t.d))
        pos = tuple(int(rng.integers(s)) for s in t.cores[k].shape)
        t.cores[k][pos] += h
        up = np.log(tt_value(t, idx))
        t.cores[k][pos] -= 2 * h
        down = np.log(tt_value(t, idx))
        t.cores[k][pos] += h
        fd = (up - down) / (2 * h)
        scale = max(abs(fd), 1e-12)
        assert abs(grads[k][pos] - fd) / scale < 1e-5


def test_log_value_grad_rejects_nonpositive():
    core = np.array([-1.0, 2.0]).reshape(1, 2, 1)
    t = TTDistribution([core])
    with pytest.raises(ValueError):
        log_value_grad(t, (0,))


def test_gradients_match_per_index_reference():
    rng = np.random.default_rng(23)
    for case in range(20):
        d, n_nodes, rank = int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(1, 4))
        t = random_tt(d, n_nodes, rank, rng) if case % 2 else signed_tt(d, n_nodes, rank, case)
        batch = [tuple(int(i) for i in rng.integers(0, n_nodes, d)) for _ in range(int(rng.integers(1, 8)))]
        batch += batch[:2]
        if tt_value(t, batch[0]) > 0.0:
            assert_cores_close(log_value_grad(t, batch[0]), ref_log_value_grad(t, batch[0]))
        want = copy_tt(t)
        want_diag = ref_ascent_step(want, batch, 0.05, 3)
        assert ascent_step(t, batch, 0.05, 3) == want_diag
        assert_cores_close(t.cores, want.cores)
    # A value at or below zero is clamped for the division and counted; the
    # first round's step through 1 / VALUE_FLOOR makes the value positive.
    t = TTDistribution([np.array([-1.0, 2.0]).reshape(1, 2, 1)])
    want = copy_tt(t)
    want_diag = ref_ascent_step(want, [(0,), (1,), (0,)], 0.01, 2)
    assert want_diag["clamped_values"] == 2
    assert ascent_step(t, [(0,), (1,), (0,)], 0.01, 2) == want_diag
    assert_cores_close(t.cores, want.cores)


def test_ascent_step_zero_rate_is_identity():
    t = random_tt(3, 4, 2, np.random.default_rng(15))
    before = [c.copy() for c in t.cores]
    diag = ascent_step(t, [(0, 1, 2)], 0.0, 3)
    assert diag == {"clamped_values": 0}
    assert all(np.array_equal(a, b) for a, b in zip(before, t.cores))


def test_ascent_step_increases_target_value():
    for steps in (1, 5):
        t = random_tt(3, 4, 2, np.random.default_rng(16))
        idx = (1, 3, 0)
        before = tt_value(t, idx)
        ascent_step(t, [idx], 0.05, steps)
        assert tt_value(t, idx) > before


def test_ascent_step_first_order_gain():
    # For one round at rate h, sum_i ln(value_i) grows by h * |grad|^2 + O(h^2).
    t = random_tt(3, 4, 3, np.random.default_rng(17))
    batch = [(0, 1, 2), (3, 3, 3), (0, 1, 2)]
    grad_sq = 0.0
    accum = [np.zeros_like(c) for c in t.cores]
    for idx in batch:
        for k, g in enumerate(log_value_grad(t, idx)):
            accum[k] += g
    grad_sq = sum(float((g**2).sum()) for g in accum)
    before = sum(np.log(tt_value(t, idx)) for idx in batch)
    h = 1e-6
    ascent_step(t, batch, h, 1)
    after = sum(np.log(tt_value(t, idx)) for idx in batch)
    assert abs((after - before) / h - grad_sq) <= 1e-3 * grad_sq


def test_ascent_step_clamps_nonpositive_values():
    core = np.array([-1.0, 2.0]).reshape(1, 2, 1)
    t = TTDistribution([core])
    diag = ascent_step(t, [(0,)], 0.01, 2)
    assert diag["clamped_values"] >= 1


def test_ascent_step_argument_guards():
    t = random_tt(2, 3, 2, np.random.default_rng(18))
    with pytest.raises(ValueError):
        ascent_step(t, [], 0.1, 1)
    with pytest.raises(ValueError):
        ascent_step(t, [(0, 0)], -0.1, 1)
    with pytest.raises(ValueError):
        ascent_step(t, [(0, 0)], 0.1, -1)
    for batch, axis in (([(0, 0), (0.5, 2.99)], 0), ([(1, 2.99)], 1)):
        with pytest.raises(ValueError, match=f"axis {axis}"):
            ascent_step(t, batch, 0.01, 1)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    t = signed_tt(4, 6, 3, 19)
    path = tmp_path / "state.tt"
    save_tt_text(t, str(path))
    loaded = load_tt_text(str(path))
    assert loaded.shape == t.shape
    assert loaded.ranks == t.ranks
    assert all(np.array_equal(a, b) for a, b in zip(loaded.cores, t.cores))
    assert path.read_text().splitlines()[0] == CHECKPOINT_MAGIC


def test_checkpoint_format_errors(tmp_path):
    bad = tmp_path / "bad.tt"
    bad.write_text("not a checkpoint\n")
    with pytest.raises(ValueError):
        load_tt_text(str(bad))
    t = random_tt(2, 3, 2, np.random.default_rng(20))
    path = tmp_path / "mangled.tt"
    save_tt_text(t, str(path))
    lines = path.read_text().splitlines()
    lines[4] = "core 7"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_tt_text(str(path))
    # Truncated files: the magic line alone, "d" with no value, a header with no cores.
    for truncated in (lines[:1], [lines[0], "d"], lines[:4]):
        path.write_text("\n".join(truncated) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_tt_text(str(path))
    # A trailing core after the last one, and non-finite entries, name their line.
    save_tt_text(t, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + ["core 2", "1.0 2.0"]) + "\n")
    with pytest.raises(ValueError, match="line 9"):
        load_tt_text(str(path))
    for entry in ("nan", "inf", "-inf"):
        for row in (5, 7):
            mangled = list(lines)
            mangled[row] = " ".join([entry] + mangled[row].split()[1:])
            path.write_text("\n".join(mangled) + "\n")
            with pytest.raises(ValueError, match=f"non-finite entry at checkpoint line {row + 1}"):
                load_tt_text(str(path))


def test_checkpoint_errors_count_blank_lines(tmp_path):
    # Blank lines load, but the line an error names is the file's own: with a blank line
    # after the four header lines, core 0's entries sit on line 7.
    path = tmp_path / "spaced.tt"
    save_tt_text(random_tt(2, 3, 2, np.random.default_rng(21)), str(path))
    lines = path.read_text().splitlines()
    spaced = lines[:4] + [""] + lines[4:]
    path.write_text("\n".join(spaced) + "\n")
    assert load_tt_text(str(path)).shape == (3, 3)
    spaced[6] = " ".join(["nan"] + spaced[6].split()[1:])
    path.write_text("\n".join(spaced) + "\n")
    with pytest.raises(ValueError, match="non-finite entry at checkpoint line 7$"):
        load_tt_text(str(path))
    path.write_text("\n".join(lines[:4] + [""] + lines[4:] + ["", "core 2"]) + "\n")
    with pytest.raises(ValueError, match="after the last core at checkpoint line 11$"):
        load_tt_text(str(path))
