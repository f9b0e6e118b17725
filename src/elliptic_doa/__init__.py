"""Joint azimuth/delay estimation for ultra-wideband ring arrays.

Sensor rings (elliptical, circular, concentric, pseudorandomly perturbed)
feed a phase-mode expansion with Bessel-based frequency-invariant filters;
a 2-D transform of the mode-frequency matrix then maps incident paths to
peaks in an azimuth-delay spectrum.  The names live in the modules
(geometry, channel, specfun, beamform, spectrum, config, pipeline, cli).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
