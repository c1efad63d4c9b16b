import toricfol


def test_every_exported_name_resolves_and_is_listed_once():
    names = toricfol.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(toricfol, n)]
    assert not missing, missing
