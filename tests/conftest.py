import pytest

from radialcap.constellation import WeightFunction
from radialcap.quadrature import CumulativeCache


@pytest.fixture
def remainder_extensions(monkeypatch):
    """The radii to which a WeightFunction's remainder mesh extends, in
    order, over the rest of the test."""
    weights, extensions = [], []
    init, extend = WeightFunction.__init__, CumulativeCache._extend

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        weights.append(self)

    def recorded_extend(self, top):
        if any(self is w._cache for w in weights):
            extensions.append(top)
        return extend(self, top)

    monkeypatch.setattr(WeightFunction, "__init__", recorded_init)
    monkeypatch.setattr(CumulativeCache, "_extend", recorded_extend)
    return extensions
