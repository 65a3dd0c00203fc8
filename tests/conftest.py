import random

import pytest

from lieyam import LieYRepPair, adjoint_rep, coadjoint_rep, semidirect
from lieyam.search import catalog_algebra, random_valid_pair

CORPUS_SEED = 20250810


@pytest.fixture(scope="session")
def a2():
    return catalog_algebra("a2")


@pytest.fixture(scope="session")
def a2_adjoint(a2):
    return LieYRepPair(a2, adjoint_rep(a2))


@pytest.fixture(scope="session")
def a2_coadjoint(a2):
    return LieYRepPair(a2, coadjoint_rep(a2))


@pytest.fixture(scope="session")
def so3():
    return catalog_algebra("so3")


@pytest.fixture(scope="session")
def sl2():
    return catalog_algebra("sl2")


@pytest.fixture()
def rng():
    return random.Random(20250810)


@pytest.fixture(scope="session")
def corpus():
    """The acceptance corpus: (A2, adjoint), (A2, coadjoint), the 4-dim
    semidirect A2 x ad with its adjoint, and 20 random pairs of dim <= 3."""
    a2 = catalog_algebra("a2")
    pairs = [
        LieYRepPair(a2, adjoint_rep(a2)),
        LieYRepPair(a2, coadjoint_rep(a2)),
    ]
    sd = semidirect(a2, adjoint_rep(a2))
    pairs.append(LieYRepPair(sd, adjoint_rep(sd)))
    rng = random.Random(CORPUS_SEED)
    pairs.extend(random_valid_pair(rng, max_dim=3) for _ in range(20))
    return pairs
