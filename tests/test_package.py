"""The package's public names."""

import segcvae


def test_every_export_is_an_attribute():
    missing = [name for name in segcvae.__all__ if not hasattr(segcvae, name)]
    assert missing == [], f"segcvae.__all__ names what the package lacks: {missing}"
