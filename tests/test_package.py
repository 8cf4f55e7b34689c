"""Package-level checks."""
import covridge


def test_every_exported_name_resolves():
    # a star import fails on any name in __all__ that the package lacks
    namespace: dict = {}
    exec("from covridge import *", namespace)
    assert set(covridge.__all__) <= set(namespace)
