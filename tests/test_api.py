import schurkit

# public names deleted because nothing but their own tests reached them
REMOVED = {
    "PointInDiagramError",
    "SignedTableau",
    "canonical_ssyt",
    "evaluation_nonzero",
    "point_in_diagram",
}


def test_public_surface():
    names = schurkit.__all__
    assert names == sorted(names)
    assert all(hasattr(schurkit, name) for name in names)
    assert REMOVED.isdisjoint(names)
    assert not any(hasattr(schurkit, name) for name in REMOVED)
