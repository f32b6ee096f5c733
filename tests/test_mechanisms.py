import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dptrain.mechanisms import ClipSpec, clip_rows, gaussian_noise
from oracles import aggregate_noisy, clip_gradient, global_norm, matmul_clip_rows


def gs(*arrays):
    return tuple(np.asarray(a, dtype=float) for a in arrays)


def test_clip_below_bound_unchanged():
    g = gs([0.3, 0.4])  # norm 0.5
    out = clip_gradient(g, ClipSpec(1.0))
    np.testing.assert_array_equal(out[0], g[0])


def test_clip_exactly_at_bound_unchanged():
    g = gs([3.0, 4.0])  # norm 5
    out = clip_gradient(g, ClipSpec(5.0))
    np.testing.assert_array_equal(out[0], g[0])


def test_clip_rescales_to_bound():
    g = gs([3.0, 4.0])
    out = clip_gradient(g, ClipSpec(1.0))
    np.testing.assert_allclose(out[0], [0.6, 0.8], atol=1e-15)


def test_clip_global_norm_spans_tensors():
    g = gs([3.0], [4.0])
    out = clip_gradient(g, ClipSpec(1.0))
    assert global_norm(out) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(out[0], [0.6], atol=1e-15)


def test_clip_rejects_invalid():
    with pytest.raises(ValueError):
        ClipSpec(0.0)
    with pytest.raises(ValueError):
        ClipSpec(np.inf)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=8),
    st.sampled_from([0.4, 0.6, 0.8, 1.0]),
)
def test_clip_invariant_property(values, bound):
    g = gs(values)
    out = clip_gradient(g, ClipSpec(bound))
    assert global_norm(out) <= bound * (1 + 1e-12)
    norm = global_norm(g)
    if norm > 0:
        pre = g[0] / norm
        post = out[0] / global_norm(out)
        assert np.max(np.abs(pre - post)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=6),
    st.floats(0.1, 5.0),
    st.floats(0.01, 100.0),
)
def test_clip_positive_homogeneity(values, bound, c):
    g = gs(values)
    scaled = clip_gradient(gs([v * c for v in values]), ClipSpec(bound * c))
    base = clip_gradient(g, ClipSpec(bound))
    np.testing.assert_allclose(
        scaled[0], base[0] * c, rtol=1e-12, atol=1e-12 * max(1.0, c)
    )


def test_noise_zero_scale_is_exact_zero():
    rng = np.random.default_rng(0)
    out = gaussian_noise(10, 0.0, rng)
    np.testing.assert_array_equal(out, np.zeros(10))


def test_noise_deterministic_per_seed():
    a = gaussian_noise(5, 1.0, np.random.default_rng(9))
    b = gaussian_noise(5, 1.0, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_noise_std_large_sample():
    rng = np.random.default_rng(1234)
    out = gaussian_noise(1_000_000, 2.0, rng)
    assert 1.99 <= out.std() <= 2.01


def test_noise_rejects_negative_scale():
    with pytest.raises(ValueError):
        gaussian_noise(2, -0.1, np.random.default_rng(0))


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
def test_noise_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match="finite"):
        gaussian_noise(2, scale, np.random.default_rng(0))


def test_aggregate_zero_sigma_is_plain_mean():
    samples = [gs([1.0, 0.0]), gs([0.0, 1.0])]
    for placement in ("after-mean", "on-sum"):
        out = aggregate_noisy(
            samples, ClipSpec(10.0), 0.0, np.random.default_rng(0), placement
        )
        np.testing.assert_allclose(out[0], [0.5, 0.5], atol=1e-15)


def test_aggregate_single_sample_identity():
    g = gs([0.3, -0.2])
    out = aggregate_noisy([g], ClipSpec(1.0), 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out[0], g[0])


def test_aggregate_identical_oversized_gradients():
    direction = np.array([3.0, 4.0]) / 5.0
    bound = 0.5
    g = gs(direction * 2 * bound)  # norm 2R
    out = aggregate_noisy(
        [g, g, g, g], ClipSpec(bound), 0.0, np.random.default_rng(0)
    )
    assert global_norm(out) == pytest.approx(bound, rel=1e-12)
    np.testing.assert_allclose(out[0] / global_norm(out), direction, atol=1e-12)


def test_aggregate_placements_coincide_for_single_sample():
    g = gs([0.4, 0.1])
    a = aggregate_noisy([g], ClipSpec(1.0), 2.0, np.random.default_rng(7), "after-mean")
    b = aggregate_noisy([g], ClipSpec(1.0), 2.0, np.random.default_rng(7), "on-sum")
    assert np.array_equal(a[0], b[0])


def test_aggregate_placement_difference_identity():
    # on_sum - after_mean == sigma*R*N * (1/B - 1) when driven by the same draws.
    samples = [gs(np.full(3, 0.1)) for _ in range(4)]
    clip, sigma = ClipSpec(1.0), 1.5
    after = aggregate_noisy(samples, clip, sigma, np.random.default_rng(3), "after-mean")
    onsum = aggregate_noisy(samples, clip, sigma, np.random.default_rng(3), "on-sum")
    draw = gaussian_noise(3, sigma * clip.max_norm, np.random.default_rng(3))
    expected = draw * (1.0 / 4.0 - 1.0)
    np.testing.assert_allclose(onsum[0] - after[0], expected, atol=1e-12)


@pytest.mark.parametrize(
    "placement,var_scale",
    [("after-mean", 1.0), ("on-sum", 1.0 / 16.0)],
)
def test_aggregate_empirical_variance(placement, var_scale):
    # 1e5 repeated aggregations of a fixed 4-sample batch: per-coordinate
    # variance must sit within 5% of the placement's prediction. Each call
    # draws its 2 coordinates next from the stream, so one [reps, 2] draw
    # holds every call's noise; the batch is within R, so its clipped sum is
    # the plain sum in list order.
    reps = 100_000
    sigma, bound = 0.7, 1.3
    base = (sigma * bound) ** 2 * var_scale
    samples = [gs([0.2, -0.1]) for _ in range(4)]
    clip = ClipSpec(bound)
    total = ((samples[0][0] + samples[1][0]) + samples[2][0]) + samples[3][0]
    draws = np.random.default_rng(99).standard_normal((reps, 2)) * (sigma * bound)
    if placement == "after-mean":
        outs = total / 4 + draws
    else:
        outs = (total + draws) / 4
    rng = np.random.default_rng(99)
    calls = [aggregate_noisy(samples, clip, sigma, rng, placement)[0] for _ in range(100)]
    assert outs[:100].tobytes() == np.array(calls).tobytes()
    var = outs.var(axis=0)
    assert np.all(np.abs(var / base - 1.0) < 0.05)


def test_aggregate_rejects_empty_batch():
    with pytest.raises(ValueError):
        aggregate_noisy([], ClipSpec(1.0), 0.0, np.random.default_rng(0))


def test_aggregate_rejects_misaligned_shapes():
    with pytest.raises(ValueError):
        aggregate_noisy(
            [gs([1.0]), gs([1.0, 2.0])],
            ClipSpec(1.0),
            0.0,
            np.random.default_rng(0),
        )


def test_aggregate_rejects_unknown_placement():
    with pytest.raises(ValueError):
        aggregate_noisy([gs([1.0])], ClipSpec(1.0), 0.0,
                        np.random.default_rng(0), "sideways")


def reference_norm(g):
    # The plain formula: one dot per flattened array, summed from 0.0.
    total = 0.0
    for a in g:
        flat = np.asarray(a).reshape(-1)
        total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


def test_norm_and_clip_match_plain_formula_bitwise():
    rng = np.random.default_rng(17)
    wide = rng.normal(size=(40, 30))
    for trial in range(200):
        scale = 10.0 ** rng.uniform(-3, 3)
        g = (
            rng.normal(size=int(rng.integers(1, 50))) * scale,
            rng.normal(size=(3, 4)) * scale,
            np.asfortranarray(rng.normal(size=(5, 6))) * scale,
            wide[:, trial % 30] * scale,  # strided column
            np.array(rng.normal() * scale),
        )
        norm = reference_norm(g)
        assert global_norm(g) == norm
        bound = float(rng.uniform(0.1, 10.0))
        factor = max(1.0, norm / bound)
        for got, a in zip(clip_gradient(g, ClipSpec(bound)), g):
            np.testing.assert_array_equal(got, a / factor)


@pytest.mark.parametrize("frozen", [False, True])
def test_clip_rows_matches_clip_gradient_bitwise(frozen):
    rng = np.random.default_rng(23)
    shapes = [(4, 3), (3,), (3, 1), (1,)]
    offsets = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
    keep = [not frozen, not frozen, True, True]
    spans = [(offsets[i], offsets[i + 1]) for i in range(len(shapes)) if keep[i]]
    rows = rng.normal(size=(9, offsets[-1])) * 10.0 ** rng.uniform(-2, 2, size=(9, 1))
    rows[:, : offsets[2]] *= 0.0 if frozen else 1.0
    rows[3] = 0.0
    expected = []
    for row in rows:
        g = tuple(row[offsets[i]:offsets[i + 1]].reshape(s) for i, s in enumerate(shapes))
        expected.append((global_norm(g), clip_gradient(g, ClipSpec(0.7))))
    norms = clip_rows(rows, spans, ClipSpec(0.7))
    for row, norm, (ref_norm, ref) in zip(rows, norms, expected):
        assert norm == ref_norm
        np.testing.assert_array_equal(row, np.concatenate([a.reshape(-1) for a in ref]))


def test_clip_rows_rejects_non_finite():
    rows = np.ones((3, 4))
    rows[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        clip_rows(rows, [(0, 4)], ClipSpec(1.0))


@pytest.mark.parametrize("seed", range(8))
def test_clip_rows_equals_matmul_oracle_bitwise(seed):
    # Spans of random width with skipped columns between them, as frozen
    # slots leave; rows with norms below, at and above R, and zero.
    rng = np.random.default_rng(seed)
    spans, col = [], 0
    for _ in range(int(rng.integers(1, 6))):
        col += int(rng.integers(0, 4))
        width = int(rng.integers(1, 40))
        spans.append((col, col + width))
        col += width
    cols = col + int(rng.integers(0, 3))
    bound = float(rng.uniform(0.1, 10.0))
    rows = rng.normal(size=(16, cols)) * 10.0 ** rng.uniform(-3, 3, size=(16, 1))
    first = spans[0][0]
    rows[0] = 0.0
    rows[1] = 0.0
    rows[1, first] = -bound  # norm exactly R: the oracle divides by 1.0, clip_rows skips it
    rows[2] *= 0.5 * bound / np.sqrt(sum(np.dot(rows[2, lo:hi], rows[2, lo:hi]) for lo, hi in spans))
    rows[3] = 3.0 * bound / np.sqrt(cols)
    rows[4] = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1e-310], size=cols)
    rows[5] = rng.normal(size=cols) * 1e150
    got, want = rows.copy(), rows.copy()
    norms = clip_rows(got, spans, ClipSpec(bound))
    ref_norms = matmul_clip_rows(want, spans, ClipSpec(bound))
    assert norms.tobytes() == ref_norms.tobytes()
    assert got.tobytes() == want.tobytes()
    assert norms[0] == 0.0 and norms[1] == bound and norms[2] < bound < norms[3]
    assert (norms > bound).any() and (norms < bound).any()
