import pytest

from jcdamp.doubled import superoperators


class DenseTable(dict):
    """Dense copies of ``superoperators(n)``, read as ``ds.<key>`` or ``ds["<key>"]``.

    Each entry is densified on its first read, so a test holds only the
    entries it uses: all ten at once are 130 MB at n=30.
    """

    def __init__(self, n):
        super().__init__()
        self.sparse = superoperators(n)

    def __missing__(self, key):
        dense = self[key] = self.sparse[key].toarray()
        return dense

    def __getattr__(self, key):
        try:
            return self[key]
        except KeyError:
            raise AttributeError(key) from None


@pytest.fixture
def dense_superoperators():
    """n -> a ``DenseTable`` of ``superoperators(n)``."""
    return DenseTable
