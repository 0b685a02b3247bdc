import threading

import numpy as np
import pytest

from primesim.numset import NumberSet, primes_up_to


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fails any test that leaves alive a thread that was not alive before it."""
    before = set(threading.enumerate())
    yield
    leaked = [thread for thread in threading.enumerate() if thread not in before]
    if leaked:
        pytest.fail(f"threads left alive: {leaked}")


def trial_division_primes(limit: int) -> list[int]:
    """Independent slow oracle: primality by trial division."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        is_prime = True
        while d * d <= n:
            if n % d == 0:
                is_prime = False
                break
            d += 1
        if is_prime:
            out.append(n)
    return out


def sparse_random_set(rng: np.random.Generator, limit: int, density: float) -> NumberSet:
    """Random sparse subset of [1, limit] for oracle-style equivalence tests."""
    mask = rng.random(limit) < density
    elems = np.flatnonzero(mask).astype(np.int64) + 1
    if elems.size == 0:
        elems = np.array([1], dtype=np.int64)
    return NumberSet.from_elements(elems, limit)


@pytest.fixture(scope="session")
def primes_10k() -> NumberSet:
    return primes_up_to(10_000)


@pytest.fixture(scope="session")
def primes_100k() -> NumberSet:
    return primes_up_to(100_000)


@pytest.fixture(scope="session")
def oracle_primes_10k() -> list[int]:
    return trial_division_primes(10_000)
