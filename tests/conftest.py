"""Shared fixtures."""

from collections import Counter

import numpy as np
import pytest

from smframe import cli

#: numpy.fft entry points by direction and rank, keyed as the counts are
_FFT_KINDS = {
    "fft": "fwd_1d", "rfft": "fwd_1d", "ifft": "inv_1d", "irfft": "inv_1d",
    "fftn": "fwd_nd", "rfftn": "fwd_nd", "fft2": "fwd_nd", "rfft2": "fwd_nd",
    "ifftn": "inv_nd", "irfftn": "inv_nd", "ifft2": "inv_nd", "irfft2": "inv_nd",
}


@pytest.fixture(autouse=True, scope="session")
def _cli_allocator_thresholds():
    """Run every test under the glibc allocator thresholds the CLI sets, so
    a stepper's time does not depend on which tests ran before it."""
    cli._keep_freed_memory()


def _count_transforms(monkeypatch, kinds):
    counts = Counter()
    for name, key in kinds.items():
        def counted(*args, _transform=getattr(np.fft, name), _key=key, **kwargs):
            counts[_key] += 1
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.fixture
def fft_census(monkeypatch):
    """Counter of numpy.fft calls keyed 'fwd_1d', 'inv_1d', 'fwd_nd' and
    'inv_nd'; clear() it right before the code under count.  Transforms
    that numpy makes internally (fftn's per-axis passes) are not counted."""
    return _count_transforms(monkeypatch, _FFT_KINDS)


@pytest.fixture
def real_fft_census(fft_census, monkeypatch):
    """Counter of the real transforms (rfft, irfft, rfftn, ...) among the
    calls `fft_census` counts, under the same keys; clear() both."""
    return _count_transforms(monkeypatch, {name: key for name, key in _FFT_KINDS.items()
                                           if name.startswith(("rfft", "irfft"))})
