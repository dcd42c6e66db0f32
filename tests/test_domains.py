import numpy as np
import pytest

from feddiv.domains import (Dataset, DomainSpec, PartitionSpec, apply_domain,
                            build_benchmark, generate_base, load_dataset, partition,
                            save_dataset)
from feddiv.errors import InputError
from feddiv.harness import default_domain_specs


def tv_from_uniform(labels, classes):
    hist = np.bincount(labels, minlength=classes) / max(len(labels), 1)
    return 0.5 * np.abs(hist - 1.0 / classes).sum()


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

    def test_invalid_params(self):
        with pytest.raises(InputError):
            generate_base(10, classes=1)
        with pytest.raises(InputError):
            generate_base(10, classes=5, size=4)


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


class TestPartition:
    def test_iid_balanced(self):
        ds = generate_base(100, 5, seed=7)
        parts = partition(ds, PartitionSpec("iid", alpha=0.5, n_clients=2), seed=0)
        assert sorted(len(p) for p in parts) == [50, 50]
        for p in parts:
            hist = np.bincount(p.labels, minlength=5)
            assert np.all(np.abs(hist - 10) <= 1)

    def test_conservation_no_duplication(self):
        ds = generate_base(90, 5, seed=8)
        parts = partition(ds, PartitionSpec("dirichlet", alpha=0.5, n_clients=4), seed=1)
        total = sum(len(p) for p in parts)
        assert total == 90
        # label marginals over all clients equal source marginals exactly
        merged = np.concatenate([p.labels for p in parts])
        assert np.array_equal(np.bincount(merged, minlength=5),
                              np.bincount(ds.labels, minlength=5))

    def test_large_alpha_approaches_iid(self):
        ds = generate_base(500, 5, seed=9)
        parts = partition(ds, PartitionSpec("dirichlet", alpha=1e6, n_clients=5), seed=2)
        for p in parts:
            assert tv_from_uniform(p.labels, 5) < 0.1

    def test_small_alpha_reproducibly_skewed(self):
        ds = generate_base(500, 5, seed=10)
        for _ in range(2):
            parts = partition(ds, PartitionSpec("dirichlet", alpha=0.1, n_clients=10), seed=3)
            shares = [np.bincount(p.labels, minlength=5).max() / max(len(p), 1)
                      for p in parts if len(p) > 0]
            assert np.mean(shares) > 0.4  # far above the IID share of 0.2

    def test_deterministic_per_seed(self):
        ds = generate_base(100, 5, seed=11)
        a = partition(ds, PartitionSpec("dirichlet", alpha=0.5, n_clients=3), seed=4)
        b = partition(ds, PartitionSpec("dirichlet", alpha=0.5, n_clients=3), seed=4)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.labels, pb.labels)
            assert np.array_equal(pa.images, pb.images)

    def test_infeasible_spec(self):
        ds = generate_base(3, 3, seed=12)
        with pytest.raises(InputError):
            partition(ds, PartitionSpec("iid", alpha=0.5, n_clients=10), seed=0)


class TestBuildBenchmark:
    def test_leave_one_out_exclusivity(self):
        specs = default_domain_specs(4)
        bench = build_benchmark(specs, held_out=3, samples_per_client=50, classes=5,
                                size=16, seed=0, val_fraction=0.2, test_samples=500)
        assert len(bench.train_clients) == 3
        assert {c["domain_id"] for c in bench.train_clients} == {0, 1, 2}
        assert bench.held_out_domain == 3

    def test_train_val_disjoint(self):
        specs = default_domain_specs(4)
        bench = build_benchmark(specs, held_out=0, samples_per_client=50, classes=5,
                                size=16, seed=1, val_fraction=0.2, test_samples=500)
        for c in bench.train_clients:
            n_total = len(c["train"]) + len(c["val"])
            assert n_total == 50
            # images differ: no sample appears in both splits
            flat_train = {c["train"].images[i].tobytes() for i in range(len(c["train"]))}
            flat_val = {c["val"].images[i].tobytes() for i in range(len(c["val"]))}
            assert not flat_train & flat_val

    def test_bitwise_stable_regeneration(self):
        specs = default_domain_specs(4)
        a = build_benchmark(specs, 3, 40, 5, 16, seed=7, val_fraction=0.2, test_samples=500)
        b = build_benchmark(specs, 3, 40, 5, 16, seed=7, val_fraction=0.2, test_samples=500)
        assert np.array_equal(a.test_set.images, b.test_set.images)
        for ca, cb in zip(a.train_clients, b.train_clients):
            assert np.array_equal(ca["train"].images, cb["train"].images)
            assert np.array_equal(ca["val"].labels, cb["val"].labels)

    def test_too_few_domains(self):
        with pytest.raises(InputError):
            build_benchmark(default_domain_specs(4)[:1], 0, 40, 5, 16, seed=0, val_fraction=0.2,
                            test_samples=500)


class TestDumpLoad:
    def test_roundtrip_bitwise(self, tmp_path):
        ds = generate_base(20, 5, seed=13)
        path = str(tmp_path / "ds.npz")
        save_dataset(ds, path, seed=13)
        back = load_dataset(path)
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
