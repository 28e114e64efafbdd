import numpy as np

from spdp import audio

import workloads


def _population(seed: int, n: int = 60) -> list:
    rng = np.random.default_rng(seed)
    return [audio.FeatureVector5(*row) for row in rng.normal(1.0, 0.3, size=(n, 5))]


def test_all_five_high_matches_the_spdp_filter():
    for seed in range(5):
        features = _population(seed)
        names = [f"f{i:03d}" for i in range(len(features))]
        bins = audio.compute_bins(features)
        expected = [n for n, fv in zip(names, features)
                    if audio.filter_high_expressivity(fv, bins)]
        assert workloads._all_five_high(names, features) == expected


def test_all_five_high_needs_every_feature_high():
    features = [audio.FeatureVector5(0.0, 0.0, 0.0, 0.0, 0.0) for _ in range(8)]
    features.append(audio.FeatureVector5(9.0, 9.0, 9.0, 9.0, 9.0))
    features.append(audio.FeatureVector5(9.0, 9.0, 9.0, 9.0, 0.0))
    names = [f"f{i}" for i in range(len(features))]
    assert workloads._all_five_high(names, features) == ["f8"]
