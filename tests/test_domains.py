import tracemalloc

import numpy as np
import pytest

from feddiv.config import BenchmarkConfig
from feddiv.domains import (Dataset, DomainSpec, apply_domain, build_benchmark, domain_specs,
                            generate_base, partition)
from feddiv.errors import ConfigError, InputError


def tv_from_uniform(labels, classes):
    hist = np.bincount(labels, minlength=classes) / max(len(labels), 1)
    return 0.5 * np.abs(hist - 1.0 / classes).sum()


# -- per-image references ----------------------------------------------------
# The generator as it was before it painted with array masks: one Python call
# per image, each with its own coordinate grid. The array version must give
# the same bytes.

def reference_draw_shape(canvas, label, cx, cy, r, value):
    h, w = canvas.shape
    ys, xs = np.mgrid[0:h, 0:w]
    if label % 5 == 0:  # filled square
        canvas[max(cy - r, 0):cy + r, max(cx - r, 0):cx + r] = value
    elif label % 5 == 1:  # disc
        canvas[(ys - cy) ** 2 + (xs - cx) ** 2 <= r * r] = value
    elif label % 5 == 2:  # plus
        canvas[max(cy - r, 0):cy + r, max(cx - 1, 0):cx + 2] = value
        canvas[max(cy - 1, 0):cy + 2, max(cx - r, 0):cx + r] = value
    elif label % 5 == 3:  # horizontal stripes
        band = (ys % 4 < 2) & (np.abs(ys - cy) <= r) & (np.abs(xs - cx) <= r)
        canvas[band] = value
    else:  # diagonal cross
        diag = (np.abs((ys - cy) - (xs - cx)) <= 1) | (np.abs((ys - cy) + (xs - cx)) <= 1)
        canvas[diag & (np.abs(ys - cy) <= r) & (np.abs(xs - cx) <= r)] = value


def reference_generate_base(n, classes, size=16, seed=0, channels=3):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 401]))
    images = np.empty((n, channels, size, size))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = i % classes
        canvas = np.full((size, size), 0.15)
        cx = size // 2 + rng.integers(-1, 2)
        cy = size // 2 + rng.integers(-1, 2)
        r = size // 3 + int(rng.integers(-1, 2))
        reference_draw_shape(canvas, label, cx, cy, r, 0.85)
        canvas += rng.normal(0.0, 0.02, size=canvas.shape)
        np.clip(canvas, 0.0, 1.0, out=canvas)
        images[i] = canvas[None].repeat(channels, axis=0)
        labels[i] = label
    return Dataset(images, labels)


def reference_apply_domain(dataset, spec):
    rng = np.random.default_rng(np.random.SeedSequence([0, spec.domain_id, 907]))
    n, c, h, w = dataset.images.shape
    gain = np.broadcast_to(np.asarray(spec.gain).reshape(1, c, 1, 1), (n, c, 1, 1))
    bias = np.broadcast_to(np.asarray(spec.bias).reshape(1, c, 1, 1), (n, c, 1, 1))
    if spec.gain_jitter > 0:
        gain = gain * (1.0 + rng.uniform(-spec.gain_jitter, spec.gain_jitter, size=(n, c, 1, 1)))
    if spec.bias_jitter > 0:
        bias = bias + rng.uniform(-spec.bias_jitter, spec.bias_jitter, size=(n, c, 1, 1))
    out = gain * dataset.images + bias
    if spec.texture_amp > 0:
        ys, xs = np.mgrid[0:h, 0:w]
        phases = rng.uniform(0, 2 * np.pi, size=(n, 2))
        wave = np.sin(2 * np.pi * spec.texture_freq * ys / h + phases[:, 0, None, None]) \
            * np.sin(2 * np.pi * spec.texture_freq * xs / w + phases[:, 1, None, None])
        out = out + spec.texture_amp * wave[:, None, :, :]
    np.clip(out, 0.0, 1.0, out=out)
    return Dataset(out, dataset.labels.copy())


def assert_same_bytes(got, want, what):
    for name in ("images", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (what, name)
        assert a.tobytes() == b.tobytes(), (what, name)


# Both jitters and a texture frequency no default spec uses.
JITTER_SPEC = DomainSpec(5, gain=(0.8, 1.2, 1.05), bias=(0.05, -0.02, 0.1),
                         texture_freq=1.5, texture_amp=0.12,
                         gain_jitter=0.3, bias_jitter=0.08)


class TestMatchesPerImageReference:
    @pytest.mark.parametrize("size", [8, 9, 12, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_generate_base(self, size, channels):
        # The first channel against a one-channel reference (the canvas), and
        # all three against a three-channel one (the canvas repeated).
        for n in (0, 1, 7, 301):
            for classes in (2, 3, 5):
                for seed in (0, 3, 1017):
                    base = generate_base(n, classes, size, seed)
                    assert_same_bytes(Dataset(base.images[:, :channels], base.labels),
                                      reference_generate_base(n, classes, size, seed, channels),
                                      (n, classes, seed))

    @pytest.mark.parametrize("spec", domain_specs(4) + [JITTER_SPEC],
                             ids=["domain0", "domain1", "domain2", "domain3", "jitter"])
    def test_apply_domain(self, spec):
        for size in (8, 9, 12, 16):
            for n in (0, 1, 7, 301):
                for seed in (0, 4):
                    base = generate_base(n, 5, size, seed)
                    assert_same_bytes(apply_domain(base, spec),
                                      reference_apply_domain(base, spec), (size, n, seed))


class TestGenerateBase:
    def test_one_image_per_class(self):
        ds = generate_base(5, classes=5, seed=0)
        assert ds.labels.tolist() == [0, 1, 2, 3, 4]

    def test_bitwise_deterministic(self):
        a = generate_base(50, 5, seed=3)
        b = generate_base(50, 5, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_value_range(self):
        ds = generate_base(40, 5, seed=1)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_class_separation_exceeds_within_class_spread(self):
        ds = generate_base(200, 5, seed=2)
        means = np.array([ds.images[ds.labels == c].mean(axis=0).reshape(-1)
                          for c in range(5)])
        stds = np.array([ds.images[ds.labels == c].std(axis=0).mean() for c in range(5)])
        pairwise = [np.abs(means[i] - means[j]).mean()
                    for i in range(5) for j in range(i + 1, 5)]
        assert min(pairwise) > 0  # classes are visually distinct
        assert np.mean(pairwise) > stds.mean() * 0.5

    def test_channels_share_one_read_only_canvas(self):
        images = generate_base(12, 5, size=8, seed=14).images
        assert images.shape == (12, 3, 8, 8) and images.strides[1] == 0
        assert not images.flags.writeable
        with pytest.raises(ValueError):
            images[0, 0, 0, 0] = 0.5

    def test_invalid_params(self):
        with pytest.raises(InputError):
            generate_base(10, classes=1)
        with pytest.raises(InputError):
            generate_base(10, classes=5, size=4)
        with pytest.raises(InputError):  # class 5 would draw class 0's shape
            generate_base(10, classes=6)


class TestApplyDomain:
    def test_identity_spec(self):
        ds = generate_base(20, 5, seed=4)
        out = apply_domain(ds, DomainSpec(0))
        assert np.array_equal(out.images, ds.images)
        assert np.array_equal(out.labels, ds.labels)

    def test_bias_arithmetic(self):
        ds = Dataset(np.full((2, 3, 8, 8), 0.2), np.zeros(2, dtype=np.int64))
        out = apply_domain(ds, DomainSpec(1, bias=(0.3, 0.3, 0.3)))
        assert np.allclose(out.images, 0.5)

    def test_labels_and_range_preserved(self):
        ds = generate_base(30, 5, seed=5)
        out = apply_domain(ds, DomainSpec(2, gain=(1.5, 0.6, 0.9), bias=(0.2, -0.1, 0.0),
                                          texture_freq=3.0, texture_amp=0.2))
        assert np.array_equal(out.labels, ds.labels)
        assert out.images.min() >= 0.0 and out.images.max() <= 1.0

    def test_distinct_specs_shift_channel_means(self):
        ds = generate_base(100, 5, seed=6)
        a = apply_domain(ds, DomainSpec(0, bias=(0.0, 0.0, 0.0)))
        b = apply_domain(ds, DomainSpec(1, bias=(0.2, 0.2, 0.2)))
        diff = np.abs(a.images.mean(axis=(0, 2, 3)) - b.images.mean(axis=(0, 2, 3)))
        assert np.all(diff > 0.1)

    def test_gain_must_be_positive(self):
        with pytest.raises(InputError):
            DomainSpec(0, gain=(0.0, 1.0, 1.0))


class TestDomainSpecs:
    def test_extras_extend_the_hand_tuned_four(self):
        six = domain_specs(6)
        assert [spec.domain_id for spec in six] == list(range(6))
        assert domain_specs(2) == six[:2] and domain_specs(4) == six[:4]
        assert domain_specs(7)[:6] == six


def clients(ds, spec, seed):
    """Each client's samples, taken by the indices ``partition`` returns."""
    return [ds.subset(idx) for idx in partition(ds.labels, spec, seed)]


def split_spec(mode, alpha, n_clients):
    """A benchmark section that splits each domain ``mode``-wise across ``n_clients``."""
    return BenchmarkConfig(partition=mode, dirichlet_alpha=alpha, clients_per_domain=n_clients)


class TestPartition:
    def test_iid_balanced(self):
        ds = generate_base(100, 5, seed=7)
        parts = clients(ds, split_spec("iid", alpha=0.5, n_clients=2), seed=0)
        assert sorted(len(p) for p in parts) == [50, 50]
        for p in parts:
            hist = np.bincount(p.labels, minlength=5)
            assert np.all(np.abs(hist - 10) <= 1)

    def test_conservation_no_duplication(self):
        ds = generate_base(90, 5, seed=8)
        parts = clients(ds, split_spec("dirichlet", alpha=0.5, n_clients=4), seed=1)
        total = sum(len(p) for p in parts)
        assert total == 90
        # label marginals over all clients equal source marginals exactly
        merged = np.concatenate([p.labels for p in parts])
        assert np.array_equal(np.bincount(merged, minlength=5),
                              np.bincount(ds.labels, minlength=5))

    def test_large_alpha_approaches_iid(self):
        ds = generate_base(500, 5, seed=9)
        parts = clients(ds, split_spec("dirichlet", alpha=1e6, n_clients=5), seed=2)
        for p in parts:
            assert tv_from_uniform(p.labels, 5) < 0.1

    def test_small_alpha_reproducibly_skewed(self):
        ds = generate_base(500, 5, seed=10)
        for _ in range(2):
            parts = clients(ds, split_spec("dirichlet", alpha=0.1, n_clients=10), seed=3)
            shares = [np.bincount(p.labels, minlength=5).max() / max(len(p), 1)
                      for p in parts if len(p) > 0]
            assert np.mean(shares) > 0.4  # far above the IID share of 0.2

    def test_deterministic_per_seed(self):
        ds = generate_base(100, 5, seed=11)
        a = clients(ds, split_spec("dirichlet", alpha=0.5, n_clients=3), seed=4)
        b = clients(ds, split_spec("dirichlet", alpha=0.5, n_clients=3), seed=4)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.labels, pb.labels)
            assert np.array_equal(pa.images, pb.images)

    def test_infeasible_spec(self):
        ds = generate_base(3, 3, seed=12)
        with pytest.raises(InputError):
            clients(ds, split_spec("iid", alpha=0.5, n_clients=10), seed=0)

    def test_iid_split_that_starves_a_client_refused(self):
        # Stratified round-robin gives the clients 2, 3 and 1 of these 6.
        ds = generate_base(6, 5, seed=0)
        with pytest.raises(InputError, match="fewer than 2"):
            partition(ds.labels, split_spec("iid", alpha=0.5, n_clients=3), seed=0)

    @pytest.mark.parametrize("seed", [114, 159])
    def test_dirichlet_redraws_a_split_that_starves_a_client(self, seed):
        # fedbn-many-clients' data: the first draw at these seeds leaves a
        # client 1 sample, which its validation split takes whole.
        spec = BenchmarkConfig(domains=6, held_out_domain=3, samples_per_client=100,
                               test_samples=10, partition="dirichlet", dirichlet_alpha=0.5,
                               clients_per_domain=8)
        bench = build_benchmark(spec, seed=seed)
        assert len(bench.train_clients) == 40
        for c in bench.train_clients:
            assert len(c["train"]) >= 1 and len(c["val"]) >= 1

    def test_dirichlet_gives_up_after_bounded_draws(self):
        # Two samples per client leave no slack for a skewed split.
        ds = generate_base(10, 5, seed=13)
        with pytest.raises(InputError, match="draws"):
            clients(ds, split_spec("dirichlet", alpha=0.01, n_clients=5), seed=0)


# The keys a spec below leaves out keep their defaults: one IID client per
# domain, 5 classes, 16x16 images and a validation share of 0.2.
class TestBuildBenchmark:
    def test_leave_one_out_exclusivity(self):
        spec = BenchmarkConfig(domains=4, held_out_domain=3, samples_per_client=50,
                               test_samples=500)
        bench = build_benchmark(spec, seed=0)
        assert len(bench.train_clients) == 3
        assert {c["domain_id"] for c in bench.train_clients} == {0, 1, 2}

    def test_train_val_disjoint(self):
        spec = BenchmarkConfig(domains=4, held_out_domain=0, samples_per_client=50,
                               test_samples=500)
        bench = build_benchmark(spec, seed=1)
        for c in bench.train_clients:
            n_total = len(c["train"]) + len(c["val"])
            assert n_total == 50
            # images differ: no sample appears in both splits
            flat_train = {c["train"].images[i].tobytes() for i in range(len(c["train"]))}
            flat_val = {c["val"].images[i].tobytes() for i in range(len(c["val"]))}
            assert not flat_train & flat_val

    def test_bitwise_stable_regeneration(self):
        spec = BenchmarkConfig(domains=4, held_out_domain=3, samples_per_client=40,
                               test_samples=500)
        a = build_benchmark(spec, seed=7)
        b = build_benchmark(spec, seed=7)
        assert np.array_equal(a.test_set.images, b.test_set.images)
        for ca, cb in zip(a.train_clients, b.train_clients):
            assert np.array_equal(ca["train"].images, cb["train"].images)
            assert np.array_equal(ca["val"].labels, cb["val"].labels)

    # The benchmark section holds these bounds, so no spec gets past them.
    def test_too_few_domains(self):
        with pytest.raises(ConfigError, match="benchmark.domains"):
            build_benchmark(BenchmarkConfig(domains=1, held_out_domain=0, samples_per_client=40,
                                            test_samples=500), seed=0)

    @pytest.mark.parametrize("held_out", [-1, 4])
    def test_held_out_outside_the_domains(self, held_out):
        with pytest.raises(ConfigError, match="benchmark.held_out_domain"):
            build_benchmark(BenchmarkConfig(domains=4, held_out_domain=held_out,
                                            samples_per_client=40, test_samples=5), seed=0)

    def test_val_fraction_leaves_one_training_sample(self):
        # Two samples at val_fraction 0.9 round to two validation samples.
        spec = BenchmarkConfig(domains=4, held_out_domain=3, samples_per_client=2,
                               val_fraction=0.9, test_samples=5)
        bench = build_benchmark(spec, seed=0)
        for c in bench.train_clients:
            assert (len(c["train"]), len(c["val"])) == (1, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_skewed_small_clients_keep_a_training_sample(self, seed):
        # At seeds 0, 2, 3 and 4 some client gets few enough samples that a
        # 0.75 validation share would round to all of them.
        spec = BenchmarkConfig(domains=4, held_out_domain=3, samples_per_client=6,
                               val_fraction=0.75, test_samples=5, partition="dirichlet",
                               dirichlet_alpha=0.3, clients_per_domain=3)
        bench = build_benchmark(spec, seed=seed)
        assert len(bench.train_clients) == 9
        for c in bench.train_clients:
            assert len(c["train"]) >= 1 and len(c["val"]) >= 1

    @pytest.mark.parametrize("mode", ["iid", "dirichlet"])
    def test_one_client_domain_is_the_whole_shifted_domain(self, mode):
        # No branch serves one client per domain: the general split must give
        # every sample of the domain once, in the domain's order.
        specs = domain_specs(3)
        one = BenchmarkConfig(domains=3, held_out_domain=2, samples_per_client=30,
                              image_size=8, test_samples=5, partition=mode, dirichlet_alpha=0.5,
                              clients_per_domain=1)
        bench = build_benchmark(one, seed=4)
        for c, spec in zip(bench.train_clients, specs):
            shifted = apply_domain(generate_base(30, 5, 8, seed=4000 + spec.domain_id), spec)
            assert_same_bytes(clients(shifted, one, seed=0)[0], shifted, mode)
            row = {img.tobytes(): i for i, img in enumerate(shifted.images)}
            assert len(row) == 30
            at = {part: [row[img.tobytes()] for img in c[part].images]
                  for part in ("train", "val")}
            assert at["train"] == sorted(at["train"]) and at["val"] == sorted(at["val"])
            assert sorted(at["train"] + at["val"]) == list(range(30))
            for part in ("train", "val"):
                assert np.array_equal(c[part].labels, shifted.labels[at[part]])

    def test_peak_memory_stays_near_the_returned_images(self):
        # The data of the benchmark's fedbn-many-clients workload: 40 Dirichlet
        # clients and 2,000 held-out images. Each image array is copied once;
        # a channel copy of the grey canvas, a second copy of each client's
        # arrays and the held-out set built on top of every client together
        # push the peak to 2.0x the images returned.
        spec = BenchmarkConfig(domains=6, held_out_domain=3, samples_per_client=100,
                               test_samples=2000, partition="dirichlet", dirichlet_alpha=0.5,
                               clients_per_domain=8)
        tracemalloc.start()
        try:
            bench = build_benchmark(spec, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = bench.test_set.images.nbytes + sum(
            c[part].images.nbytes for c in bench.train_clients for part in ("train", "val"))
        assert peak <= 1.5 * returned, peak / returned
