import importlib.util
from pathlib import Path

import pytest

from bachimpact import (
    BachelierModel,
    BasketCall,
    TimeGrid,
    build_normal_panel,
    make_spd,
)


@pytest.fixture(scope="session")
def sigma1():
    return make_spd([[1.0]])


@pytest.fixture(scope="session")
def atm_model(sigma1):
    # one-dimensional desk setup: unit vol, unit horizon, spot 8
    return BachelierModel(s0=[8.0], mu=[0.0], sigma=sigma1, T=1.0)


@pytest.fixture(scope="session")
def atm_call():
    return BasketCall(a=[1.0], b=-8.0)


@pytest.fixture(scope="session")
def sigma2():
    return make_spd([[1.0, 0.3], [0.3, 2.0]])


@pytest.fixture(scope="session")
def model2(sigma2):
    return BachelierModel(s0=[8.0, 6.0], mu=[0.0, 0.0], sigma=sigma2, T=1.0)


@pytest.fixture(scope="session")
def rule1():
    # light rule for 1-d module tests; acceptance uses the library default
    return build_normal_panel(200, 8, 1)


@pytest.fixture(scope="session")
def grid64():
    return TimeGrid(n_steps=64, T=1.0)


def bachelier_call_value(m: float) -> float:
    """Oracle E[(Z + m)^+] = m Phi(m) + phi(m) for Z ~ N(0,1)."""
    from scipy.stats import norm

    return m * norm.cdf(m) + norm.pdf(m)


@pytest.fixture(scope="session")
def call_oracle():
    return bachelier_call_value


@pytest.fixture(scope="session")
def reference():
    """The benchmark's plain-Python closed forms (bench/reference.py), loaded read-only."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
