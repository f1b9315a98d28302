import pytest

from naphopf import hopf, trees


@pytest.fixture
def fresh_table(monkeypatch):
    """A factory of empty tree tables: each call puts a new ``TreeTable`` in
    place of ``TREE_TABLE`` in ``trees`` and ``hopf`` and returns it.

    The cached monomial antipodes are cleared before the test and after it,
    so that no answer computed on another table is served from the
    cache, and none computed on a fresh one outlives the test.
    """
    def swap() -> trees.TreeTable:
        table = trees.TreeTable()
        monkeypatch.setattr(trees, "TREE_TABLE", table)
        monkeypatch.setattr(hopf, "TREE_TABLE", table)
        return table

    hopf.antipode_monomial.cache_clear()
    yield swap
    hopf.antipode_monomial.cache_clear()
