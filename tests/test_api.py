import inspect

import credal


def test_all_lists_every_public_import_once():
    names = credal.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(credal, name), name
    public = {
        name
        for name, obj in vars(credal).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__.startswith("credal.")
    }
    assert public - set(names) == set()
    assert "HypothesisSet" not in names and not hasattr(credal, "HypothesisSet")
