import numpy as np
import pytest

from brickwork_ep import ParameterPoint

# reference parameter point used throughout: gamma = pi/4, x = 0.3293
X_A = 0.3293
GAMMA_A = np.pi / 4


def random_density(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_easy_plane_point(rng, min_denom=1e-3, theta=0.0):
    """Rejection-sample an easy-plane point with bounded spectrum denominators."""
    while True:
        x = rng.uniform(-1.2, 1.2)
        gamma = rng.uniform(0.05, np.pi - 0.05)
        eps = rng.uniform(0.05, 0.99)
        lam, q = np.exp(x), np.exp(1j * gamma)
        if (abs(q**2 - lam**2) >= min_denom
                and abs(lam**2 * q**2 - 1.0) >= min_denom
                and abs(lam**2 - 1.0) >= min_denom):
            return ParameterPoint.easy_plane(x, gamma, eps, theta)


def exact_ep_x(eps0, gamma):
    """The x > 0 solving the discriminant zero for a given critical epsilon."""
    c2x = ((eps0 + 1.0) ** 2 - (eps0 - 1.0) ** 2 * np.cos(2.0 * gamma)) / (4.0 * eps0)
    return np.arccosh(c2x) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for the test and returns
    the list its calls append to."""
    def wrap(module, name):
        calls, fn = [], getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls
    return wrap
