import pytest

from mkvc import BipartiteInstance


@pytest.fixture
def k22():
    """Complete bipartite 2x2, unit weights, k=2."""
    return BipartiteInstance(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)], 2)
