import sys

import numpy as np
import pytest

from physmotion.humanoid import default_model


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def fk_calls(monkeypatch):
    """Routes every physmotion module's forward_kinematics through a counter;
    the list of the q shapes it was called with."""
    import physmotion.humanoid as humanoid

    original = humanoid.forward_kinematics
    calls = []

    def counted(model, q):
        calls.append(np.shape(q))
        return original(model, q)

    for name, module in list(sys.modules.items()):
        if name.startswith("physmotion") and getattr(module, "forward_kinematics", None) is original:
            monkeypatch.setattr(module, "forward_kinematics", counted)
    return calls
