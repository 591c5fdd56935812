import pytest
from hypothesis import Phase, settings

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
# "ci" without shrinking: a failing property test reports its first failing example at once
settings.register_profile("ci-no-shrink", settings.get_profile("ci"),
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("ci")


from skewbrace import groups  # noqa: E402


@pytest.fixture(scope="session")
def z2():
    return groups.cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return groups.cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return groups.cyclic_group(4)


@pytest.fixture(scope="session")
def klein():
    return groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2))


@pytest.fixture(scope="session")
def s3():
    return groups.symmetric_group(3)


@pytest.fixture(scope="session")
def d4():
    return groups.dihedral_group(4)


@pytest.fixture(scope="session")
def q8():
    return groups.dicyclic_group(2)


@pytest.fixture(scope="session")
def d16():
    return groups.dihedral_group(8)
