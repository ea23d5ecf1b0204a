"""Where a branch's own parameters live, for tests that check them."""

import numpy as np


def branch_slices(model, index: int) -> list[tuple[str, object]]:
    """(parameter name, numpy index) of every parameter slice of ``model``
    used by no other branch than ``index``: its trigger in each family."""
    channels = model.config.conv_channels
    kernel = np.s_[..., index * channels:(index + 1) * channels]
    return [(name, kernel if name.endswith(".kernel") else index)
            for name in model.params if name.endswith((".kernel", ".dense"))]
