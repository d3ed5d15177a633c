import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "default", max_examples=30, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
