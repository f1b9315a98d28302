import pytest

from naphopf import hopf, trees


@pytest.fixture
def fresh_table():
    """Empties every memo of the tree table, before the test and after it.

    ``trees.clear()`` empties the id-keyed memos of :mod:`naphopf.trees` in
    place, so every module that imported them sees the same empty dicts, and
    the spelling cache of ``parse_tree`` with them; ids and trees stay, as
    they live for the process.  The cached monomial antipodes are cleared
    too, so that no answer computed before is served from the cache, and
    none computed in the test outlives it.
    """
    def clear() -> None:
        trees.clear()
        hopf.antipode_monomial.cache_clear()

    clear()
    yield clear
    clear()
