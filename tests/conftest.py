import pytest

# the n = 3 toy fixture; test modules import its constants from here
from ld2.cli import (
    TOY_A1,
    TOY_A2,
    TOY_ALPHA,
    TOY_C1,
    TOY_C2,
    TOY_EQUATIONS,
    toy_secret_key,
)
from ld2.gf2n import Field
from ld2.keys import QuadraticEquation, derive_public_key


@pytest.fixture(scope="session")
def f8():
    return Field(3)


@pytest.fixture(scope="session")
def toy_sk():
    return toy_secret_key()


@pytest.fixture(scope="session")
def toy_pk(toy_sk):
    return derive_public_key(toy_sk)


@pytest.fixture(scope="session")
def toy_expected():
    return tuple(QuadraticEquation.from_terms(3, **terms) for terms in TOY_EQUATIONS)
