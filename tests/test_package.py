import inspect

import linkspectra


def test_all_exports_classes_and_functions_only():
    assert len(set(linkspectra.__all__)) == len(linkspectra.__all__)
    for name in linkspectra.__all__:
        obj = getattr(linkspectra, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name
