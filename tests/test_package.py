import hadpoly


def test_every_export_resolves():
    missing = [name for name in hadpoly.__all__ if not hasattr(hadpoly, name)]
    assert missing == []
