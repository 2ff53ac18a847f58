"""The package's public names: ``__all__`` is sorted, unique and importable."""

import quadbloch


def test_all_is_sorted_unique_and_resolves():
    names = quadbloch.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        getattr(quadbloch, name)

