"""The public surface: ``gpspec.__all__`` names each export once, and each resolves."""
import gpspec


def test_all_names_resolve_and_none_repeats():
    assert len(set(gpspec.__all__)) == len(gpspec.__all__)
    missing = [name for name in gpspec.__all__ if not hasattr(gpspec, name)]
    assert not missing
