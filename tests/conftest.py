import numpy as np
import pytest
from hypothesis import settings

from causalfs.panel import AlignedPanel, MonthStamp

# CI runs with --hypothesis-profile=ci: the same examples on every run, so a
# CI failure reproduces locally with the same flag
settings.register_profile("ci", derandomize=True, deadline=None)


def month_range(start: str, n: int) -> tuple[MonthStamp, ...]:
    first = MonthStamp.parse(start)
    return tuple(first.plus(i) for i in range(n))


def make_panel(target, features, names=None, start="2000-01", target_name="Y"):
    target = np.asarray(target, dtype=float)
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    if names is None:
        names = tuple(f"X{i + 1}" for i in range(features.shape[1]))
    return AlignedPanel(
        dates=month_range(start, len(target)),
        target=target,
        features=features,
        feature_names=tuple(names),
        target_name=target_name,
        returns_x100=False,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
