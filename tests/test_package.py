import viscobeam


def test_star_import_and_unique_public_names():
    # A name left in __all__ after its definition is deleted breaks
    # ``from viscobeam import *`` with an AttributeError.
    namespace = {}
    exec("from viscobeam import *", namespace)
    assert set(viscobeam.__all__) <= set(namespace)
    assert len(set(viscobeam.__all__)) == len(viscobeam.__all__)
