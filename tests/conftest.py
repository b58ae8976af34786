import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from causalfs.numerics import ols_fit
from causalfs.panel import AlignedPanel, MonthStamp
from causalfs.selectors import residual_invariance_p

# The ci profile is the default: every run draws the same examples, so a
# failure reproduces on the next run; --hypothesis-profile=<name> overrides it
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile("ci")

# Floats a CSV round trip must carry bit for bit: signed zero, subnormals and
# the extremes first, then any float but NaN, which has no single repr. An
# aligned panel holds only the finite ones.
csv_finite_floats = st.one_of(
    st.sampled_from(
        [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)
csv_floats = st.one_of(csv_finite_floats, st.sampled_from([math.inf, -math.inf]))
# Series names with the characters a CSV writer must quote or keep: comma,
# quote, carriage return, newline, tab, spaces, non-ASCII. No ';', the
# ledger's selection separator.
csv_names = st.text(st.sampled_from(list('Xy7 ,"\'\r\n\t.-_&\u00e9\u20ac')), min_size=1, max_size=8)
# The names a panel CSV accepts: any of those but a blank one.
panel_names = csv_names.filter(str.strip)


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
        data=np.column_stack([target, features]),
        names=(target_name, *names),
    )


def near_copy_panel(sigma):
    """A panel whose last feature copies the one before it plus noise of sd
    ``sigma``, and whose target loads on lag 1 of three features. Sigma
    2.0e-3 puts the scaled Gram of every least-squares system on all of its
    lag-1 columns within 0.8-1.0 times the condition cap, and sigma 1.8e-3
    within 1.0-1.25 times."""
    n = 150
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(n, 6))
    feats[:, -1] = feats[:, -2] + sigma * rng.normal(size=n)
    y = np.empty(n)
    y[0] = 0.0
    y[1:] = (0.3 * feats[:-1, 0] - 0.25 * feats[:-1, 1] + 0.2 * feats[:-1, -2]
             + rng.normal(size=n - 1))
    return make_panel(y, feats)


def per_subset_p_values(design, envs, max_subset_size):
    """seqICP's invariance p of every feature subset up to ``max_subset_size``
    along the per-subset path: one ols_fit and one 1-D invariance test each."""
    p_values = {}
    for size in range(max_subset_size + 1):
        for subset in combinations(design.feature_names, size):
            cols = [0] + design.feature_column_indices(subset)
            fit = ols_fit(design.X[:, cols], design.y)
            p_values[subset] = residual_invariance_p(fit.residuals, envs)
    return p_values


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
