"""Fixed reference task: measures how fast the host is during a run.

``run.py`` starts this script as a fresh process before each op and after
the last one, with the same environment as the ops, and divides each op's
wall time by the mean time of the two runs of this task around it
(``op_p50_rel`` is the median of those ratios).  It imports
numpy and nothing of the program, so no change to the program can move its
time: only the host's speed can.

Its work has the op's mix: a fresh interpreter importing numpy, complex
phase factors, a complex GEMM, a 2-D FFT, a downward three-term recurrence
(the shape of the Bessel tables) and float-to-text formatting (the shape of
the CSV export).  It takes about 0.3-0.5 s with one BLAS thread.
"""

import numpy as np

rng = np.random.default_rng(7)
phases = rng.uniform(0.0, 2.0 * np.pi, (256, 720))
args = rng.uniform(0.1, 60.0, 4000)
total = 0.0
for _ in range(3):
    w = np.exp(1j * phases)
    spectrum = np.abs(np.fft.fft2(w @ w.conj().T)) ** 2
    table = np.zeros((80, args.size))
    table[1] = 1e-30
    for n in range(78, 0, -1):
        table[n - 1] = 2 * n / args * table[n] - table[n + 1]
    total += float(spectrum.sum()) + float(table[0].sum())
text = "".join(f"{a:.9g},{b:.9g}\n" for a, b in zip(args.tolist() * 20, phases.ravel().tolist()))
print(f"reftask: {len(text)} bytes, finite={np.isfinite(total)}")
