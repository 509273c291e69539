"""Tests for the store's codec entry points (``repro.store.engine``).

Batch sizing and batched ≡ serial live in ``tests/test_codec_batch.py``.
"""

import numpy as np
import pytest

from repro.compressors.errors import UnknownCompressorError
from repro.core.mr_compressor import MultiResolutionCompressor
from repro.core.partition import extract_unit_blocks
from repro.datasets.synthetic import smooth_wave_field
from repro.store import CodecEngine
from repro.store.engine import decode_payloads

EB = 0.02


@pytest.fixture(scope="module")
def blocks():
    field = smooth_wave_field((32, 32, 32), frequencies=(2.0, 3.0, 1.0))
    return extract_unit_blocks(field, unit_size=8).blocks


class TestCodecEngine:
    def test_decode_roundtrip(self, blocks):
        payloads = CodecEngine().encode_blocks(blocks, EB)
        # One level is one stack payload; it decodes to the stack.
        (decoded,) = decode_payloads(payloads)
        assert len(decoded) == blocks.shape[0]
        for recon, block in zip(decoded, blocks):
            assert np.abs(recon - block).max() <= EB * (1 + 1e-9)

    def test_from_compressor_matches_codec(self, blocks):
        mrc = MultiResolutionCompressor(compressor="sz2", unit_size=8)
        engine = CodecEngine.from_compressor(mrc)
        payloads = engine.encode_blocks(blocks[:4], EB)
        direct = [mrc.codec.compress(b, EB).to_bytes() for b in blocks[:4]]
        assert payloads == direct

    def test_unknown_codec_rejected_eagerly(self):
        with pytest.raises(UnknownCompressorError):
            CodecEngine(codec="mgard")
