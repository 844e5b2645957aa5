import warnings

import pytest

from repcount import build, parse_spec

# On a failing @given test hypothesis imports this module to suggest a patch,
# and its import raises a DeprecationWarning, which the warnings-as-errors
# setting would turn into an internal error that aborts the run before the
# falsifying example is printed.  Imported here once, with that warning
# ignored, a failing property test reports like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def g12():
    return build(parse_spec("g12"))


@pytest.fixture(scope="session")
def g24():
    return build(parse_spec("g24"))


@pytest.fixture(scope="session")
def g29():
    return build(parse_spec("g29"))


@pytest.fixture(scope="session")
def g31():
    return build(parse_spec("g31"))


@pytest.fixture(scope="session")
def exceptional_groups(g12, g24, g29, g31):
    return {"g12": g12, "g24": g24, "g29": g29, "g31": g31}
