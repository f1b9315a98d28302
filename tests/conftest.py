import pytest

from naphopf import hopf, trees


@pytest.fixture
def fresh_table():
    """The tree table with every memo emptied, before the test and after it.

    ``TREE_TABLE.clear()`` empties the memos in place, so every module that
    imported the table sees the same empty one, and the spelling cache of
    ``parse_tree`` with them; ids and trees stay, as they live for the
    process.  The cached monomial antipodes are cleared too,
    so that no answer computed before is served from the cache, and none
    computed in the test outlives it.
    """
    def clear() -> trees.TreeTable:
        trees.TREE_TABLE.clear()
        hopf.antipode_monomial.cache_clear()
        return trees.TREE_TABLE

    clear()
    yield clear
    clear()
