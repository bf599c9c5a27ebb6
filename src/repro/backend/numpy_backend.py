"""NumPy reference backend — the bit-identity anchor of the dispatch layer.

Every method maps to exactly one plain NumPy call, so the float64 policy
reproduces a plain-NumPy engine bit for bit (the golden-regression and
conformance tests pin this).  The float32 policy consumes the same
RNG stream — draws happen in the generator's native float64 and are cast
afterwards — which keeps float32-vs-float64 comparisons purely about
arithmetic rounding, not about different random numbers.
"""

from __future__ import annotations

import numpy as np

from repro.backend.core import ArrayBackend, register_backend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """The reference backend: ``xp`` is NumPy itself, RNG passes through."""

    name = "numpy"

    @property
    def xp(self):
        """The backing array module: NumPy itself."""
        return np

    def to_numpy(self, a) -> np.ndarray:
        """Identity transport: the array is already on the host."""
        return np.asarray(a)

    # -- RNG adapter ---------------------------------------------------------

    def uniform(self, rng: np.random.Generator, shape):
        """U(0, 1) draws from the caller's generator, cast to the policy dtype.

        The float64 draw, and under the float32 policy its cast, go into
        :meth:`empty` buffers, so a buffer pool scope serves both.
        """
        u = rng.random(shape, out=self.empty(shape, dtype=np.float64))
        if u.dtype == self.dtype:
            return u
        out = self.empty(shape)
        out[...] = u
        return out

    def sample_gaps(self, pitch, shape, rng: np.random.Generator, out=None):
        """Gap draws from ``pitch`` on the caller's generator, policy dtype.

        ``out`` enables an allocation-free fast path for exponential/gamma
        families under the float64 policy; the drawn values are identical
        to the generic path either way.
        """
        if out is not None and self.dtype == np.dtype(np.float64):
            # Allocation-free fast path for the families whose standard
            # variates NumPy can draw straight into a destination view.
            # ``Generator.exponential(scale)`` / ``gamma(k, scale)`` are
            # exactly ``standard_* * scale`` on the same stream, so the
            # values (not just the law) match the generic path.
            from repro.growth.pitch import ExponentialPitch, GammaPitch

            if isinstance(pitch, ExponentialPitch):
                rng.standard_exponential(size=shape, out=out)
                out *= pitch.mean_pitch_nm
                return out
            if isinstance(pitch, GammaPitch):
                rng.standard_gamma(pitch.shape, size=shape, out=out)
                out *= pitch.scale_nm
                return out
        gaps = pitch.sample_batch(shape, rng)
        return np.asarray(gaps, dtype=self.dtype)


register_backend(
    "numpy", lambda dtype, accum: NumpyBackend(dtype=dtype, accum_dtype=accum)
)
