import numpy as np
import pytest

from analogopt.core import Dataset, EmptyDatasetError, dataset_append, top_k, uniform_k

from conftest import make_dataset, make_record


def test_top_k_matches_sort_oracle():
    rng = np.random.default_rng(0)
    foms = list(rng.normal(size=10))
    dataset = make_dataset(foms)
    selected = top_k(dataset, 5)
    # independent oracle: full sort of (fom, stable index)
    expected = sorted(range(10), key=lambda i: (-foms[i], i))[:5]
    assert [r.fom for r in selected] == [foms[i] for i in expected]
    assert [r.fom for r in selected] == sorted(foms, reverse=True)[:5]


def test_top_k_returns_all_when_short():
    dataset = make_dataset([1.0, 3.0, 2.0])
    selected = top_k(dataset, 5)
    assert [r.fom for r in selected] == [3.0, 2.0, 1.0]


def test_top_k_tie_prefers_earlier_insertion():
    dataset = make_dataset([5.0, 5.0, 1.0])
    selected = top_k(dataset, 2)
    assert selected[0] is dataset[0]
    assert selected[1] is dataset[1]


def test_top_k_partition_property():
    rng = np.random.default_rng(4)
    dataset = make_dataset(list(rng.normal(size=30)))
    selected = top_k(dataset, 7)
    chosen = {id(r) for r in selected}
    excluded = [r for r in dataset if id(r) not in chosen]
    assert min(r.fom for r in selected) >= max(r.fom for r in excluded)


def test_top_k_stable_under_low_appends():
    rng = np.random.default_rng(5)
    dataset = make_dataset(list(rng.normal(size=12)))
    before = top_k(dataset, 5)
    kth = before[-1].fom
    dataset_append(dataset, make_record(kth - 1.0))
    assert top_k(dataset, 5) == before


def test_top_k_validations():
    with pytest.raises(EmptyDatasetError):
        top_k(Dataset(), 3)
    with pytest.raises(ValueError):
        top_k(make_dataset([1.0]), 0)


def test_uniform_k_deterministic_given_seed():
    dataset = make_dataset(list(range(20)))
    a = uniform_k(dataset, 5, np.random.default_rng(42))
    b = uniform_k(dataset, 5, np.random.default_rng(42))
    assert [r.fom for r in a] == [r.fom for r in b]


def test_uniform_k_full_draw_is_permutation():
    dataset = make_dataset(list(range(8)))
    selected = uniform_k(dataset, 8, np.random.default_rng(1))
    assert sorted(r.fom for r in selected) == list(map(float, range(8)))


def test_uniform_k_no_replacement():
    dataset = make_dataset(list(range(10)))
    for seed in range(20):
        selected = uniform_k(dataset, 6, np.random.default_rng(seed))
        assert len({r.fom for r in selected}) == 6


def test_uniform_k_frequencies_uniform():
    # chi-square check over 10^4 draws of 3 from 8
    n, k, trials = 8, 3, 10_000
    dataset = make_dataset(list(range(n)))
    rng = np.random.default_rng(7)
    counts = np.zeros(n)
    for _ in range(trials):
        for record in uniform_k(dataset, k, rng):
            counts[int(record.fom)] += 1
    expected = trials * k / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 99th percentile of chi-square with 7 degrees of freedom
    assert chi2 < 18.48
    # every record also stays within 3 sigma of its expected inclusion count
    sigma = np.sqrt(trials * (k / n) * (1 - k / n))
    assert np.all(np.abs(counts - expected) <= 3.0 * sigma)


def test_uniform_k_empty_dataset():
    with pytest.raises(EmptyDatasetError):
        uniform_k(Dataset(), 2, np.random.default_rng(0))


def test_top_k_after_interleaved_tied_appends_matches_sort_reference():
    rng = np.random.default_rng(9)
    foms = list(rng.choice([-9.5, -2.0, 0.0, 1.5], size=8))
    dataset = make_dataset(foms)
    for _ in range(40):
        fom = float(rng.choice([-9.5, -2.0, 0.0, 1.5, rng.normal()]))
        dataset_append(dataset, make_record(fom))
        foms.append(fom)
        for k in (1, 5, len(foms) + 1):
            order = sorted(range(len(foms)), key=lambda i: (-foms[i], i))[:k]
            assert [id(r) for r in top_k(dataset, k)] == [id(dataset[i]) for i in order]
    copy = Dataset(list(dataset))
    assert [id(r) for r in top_k(copy, 12)] == [id(r) for r in top_k(dataset, 12)]
