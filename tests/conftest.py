from types import SimpleNamespace

import pytest

from jcdamp.doubled import superoperators


@pytest.fixture
def dense_superoperators():
    """n -> dense copies of ``superoperators(n)``, read as ``ds.<key>``."""
    return lambda n: SimpleNamespace(**{key: mat.toarray() for key, mat in superoperators(n).items()})
