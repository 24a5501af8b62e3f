import pbwtidx as px


def test_every_exported_name_resolves():
    assert len(px.__all__) == len(set(px.__all__))
    assert [name for name in px.__all__ if not hasattr(px, name)] == []
