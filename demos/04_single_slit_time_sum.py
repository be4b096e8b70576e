"""Sum a slit crossing over every crossing time and watch it converge.

With the crossing time unmeasured, the amplitude through a slit is the
integral of the two-step propagator over all crossing times.  Widening the
integration window around the stationary time, the amplitude converges to
the closed form built on the scaled complementary error function -- and its
argument rotates from the stationary value phi0 by exactly +pi/4.

The preset aligns phi0 on a half turn, so the argument runs from -pi to
-3 pi/4 as the window opens.
"""

import numpy as np

from matterslit import (
    ELECTRON,
    TimeSumConfig,
    TwoLegPath,
    evaluate_window,
    normalized_argument,
    stationary_phase,
    timesum_asymptotic,
    timesum_closed_form,
)
from matterslit.cli import fig4_preset

preset = fig4_preset()
leg = preset["path"]["leg1_m"]
tau = preset["path"]["duration_s"]
path = TwoLegPath(leg, leg, tau)
phi0 = stationary_phase(path, ELECTRON).raw
print(f"legs {leg:.2e} m, duration {tau:.4e} s, phi0 = {phi0:.1f} rad")
print(f"phi0 mod 2 pi = {np.mod(phi0, 2 * np.pi):.6f}  (aligned on pi)")

windows = preset["windows_s"]
amplitudes = [
    evaluate_window(path, TimeSumConfig(window=w, max_nodes=preset["max_nodes"]), ELECTRON)[0]
    for w in windows
]
closed = timesum_closed_form(phi0, ELECTRON)
print(f"\n{'window/tau':>10} {'Re':>12} {'argument':>10}")
for w, amp in zip(windows, amplitudes):
    print(f"{w / tau:10.2f} {amp.re:12.4f} {normalized_argument(amp, ELECTRON):10.5f}")
print(f"{'closed':>10} {closed.re:12.4f} {normalized_argument(closed, ELECTRON):10.5f}")
print(f"{'-3 pi/4':>23} {-3 * np.pi / 4:10.5f}")

print("\nlarge-phi0 expansion at this phi0 (terms, relative error vs closed form):")
for n in (1, 2, 3, 4):
    result = timesum_asymptotic(phi0, n, ELECTRON)
    rel = abs(result.amplitude.as_complex() - closed.as_complex()) / closed.magnitude()
    print(f"  {n} term(s): rel {rel:.2e}, first omitted term estimate {result.error_estimate:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fractions = np.asarray(windows) / tau
    res = np.asarray([amp.re for amp in amplitudes])
    args = np.asarray([normalized_argument(a, ELECTRON) for a in amplitudes])
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(7, 6), sharex=True)
    ax1.plot(fractions, res, "o-", ms=3)
    ax1.axhline(closed.re, color="k", ls="--", lw=0.8)
    ax1.set_ylabel("Re of the time sum")
    ax2.plot(fractions, args, "o-", ms=3, color="tab:red")
    ax2.axhline(-3 * np.pi / 4, color="k", ls="--", lw=0.8)
    ax2.axhline(-np.pi, color="k", ls=":", lw=0.8)
    ax2.set_ylabel("argument (prefactor removed)")
    ax2.set_xlabel("integration window / total duration")
    fig.tight_layout()
    fig.savefig("single_slit_time_sum.png", dpi=150)
    print("\nwrote single_slit_time_sum.png")
