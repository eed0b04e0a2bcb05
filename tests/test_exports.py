import photonc


def test_all_names_resolve_once():
    assert len(set(photonc.__all__)) == len(photonc.__all__)
    missing = [name for name in photonc.__all__ if not hasattr(photonc, name)]
    assert not missing
