"""Tracing noisy orbits: the series correction and its bound.

A pseudo-orbit is a sequence that almost follows the map: each step
lands within some defect d of the true image. For a hyperbolic linear
map the defects can be rolled up into a convergent series, one along
the contracting directions read forward, one along the expanding
directions read backward, and the result is a genuine orbit that stays
within (coefficient x d) of every window entry. The coefficient is a
closed-form function of the eigenrates.
"""

import random
from fractions import Fraction

from topodyn import (
    PERIODIC,
    PseudoOrbit,
    linear_hyperbolic,
    metric_ball,
    perturbed_pseudo_orbit,
    pseudo_orbit_to_text,
    pseudo_orbit_from_text,
    torus_automorphism,
    trace_linear_hyperbolic,
    unique_tracing_check,
)

cat = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
saddle = linear_hyperbolic(((2, 0), (0, 0.5)), name="diag-saddle")

# --- a noisy torus orbit, corrected ---------------------------------

po = perturbed_pseudo_orbit(cat, (0.2, 0.7), length=60, noise=1e-3, seed=12)
result = trace_linear_hyperbolic(cat, po)
print("cat map, 60 steps of noise 1e-3")
print(f"  measured defect:    {po.defect_bound:.3e}")
print(f"  tracing error:      {result.error_bound:.3e}")
print(f"  guaranteed bound:   {result.guaranteed_bound:.3e}"
      f"  (sqrt(3) x defect)")
print()

# the traced object is an actual orbit: apply the map, compare
worst = max(cat.metric(cat.forward(result.traced_orbit[k]),
                       result.traced_orbit[k + 1])
            for k in range(len(result.traced_orbit) - 1))
print(f"  worst step mismatch along the traced orbit: {worst:.2e}")
print()

# --- periodic windows close up exactly in rational arithmetic -------

w = tuple((Fraction(k, 7) % 1, Fraction(3 * k + 1, 11) % 1)
          for k in range(4))
po = PseudoOrbit.measured(cat, w, PERIODIC)
exact = trace_linear_hyperbolic(cat, po, exact=True)
z = exact.point
for _ in range(4):
    z = cat.forward(z)
print("periodic rational window of length 4 on the torus")
print(f"  tracing point: {exact.point}")
print(f"  period-4 return is exact: {z == exact.point}")
print()

# --- only one orbit can trace: the uniqueness check -----------------

po = perturbed_pseudo_orbit(saddle, (0.2, 0.1), length=12, noise=1e-3,
                            seed=1, extension=PERIODIC)
unique = unique_tracing_check(saddle, po, metric_ball(saddle, 0.5),
                              horizon=80)
print("uniqueness on the plane saddle, ball radius 0.5:", unique.verdict)
print("  any two candidate tracers separate; the composed ball is still")
print("  inside an expansive neighborhood, so they cannot both stay close")
print()

# --- the text format round-trips ------------------------------------

po = perturbed_pseudo_orbit(cat, (0.5, 0.25), length=5, noise=1e-2, seed=3)
text = pseudo_orbit_to_text(cat, po, seed=3)
back, header = pseudo_orbit_from_text(text, cat)
print("serialized window survives the round trip:",
      back.window == po.window)
print(f"  header carries system={header['system']}"
      f" delta={header['delta']} seed={header['seed']}")
