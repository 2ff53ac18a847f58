from dataclasses import replace

import numpy as np
import pytest

from quadbloch import BoundState, TwoLevelParams, verification


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture(scope="session")
def states_n_le_4():
    return [
        BoundState(n, l, m)
        for n in range(1, 5)
        for l in range(n)
        for m in range(-l, l + 1)
    ]


@pytest.fixture
def canonical_params():
    """q = 0.1, omega21 = 1, tau = 0.01, lam = 0.05."""
    return TwoLevelParams(omega21=1.0, gamma11=0.02, gamma22=0.0, gamma12=-0.04, a12=0.2)


@pytest.fixture
def flip_rotation(monkeypatch):
    """A call that makes ``verification``'s right-hand side turn the other way:
    omega21 and the gammas negated, q kept. The closed-form residual is its
    only use there, so this is that check's negative control: it must fail
    wherever the flow turns."""
    rhs = verification.bloch_rhs

    def flipped(x, p):
        return rhs(x, replace(p, omega21=-p.omega21, gamma11=-p.gamma11, gamma22=-p.gamma22,
                              gamma12=-p.gamma12))

    return lambda: monkeypatch.setattr(verification, "bloch_rhs", flipped)
