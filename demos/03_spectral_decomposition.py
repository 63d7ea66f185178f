"""Splitting the recurrent part of a system into basic sets.

Recurrence organizes itself: the points that come back near themselves
group into finitely many indecomposable pieces, each internally
transitive and each carrying a dense supply of periodic orbits. On a
shift of finite type those pieces are exactly the cycle-bearing
strongly connected components of the transition graph. On the torus
the grid stays one single chain-connected piece while the entourage
ladder shrinks, and the partition reported is the one at the step
where the ladder stabilizes. The decomposition object carries
certificates for all of this and can re-check itself from scratch.
"""

from topodyn import sft_shift, spectral_decompose, torus_automorphism

# a six-symbol alphabet wired as two separate cycle families plus one
# symbol (5) that exits and never returns: recurrent but reducible
two_block = sft_shift(
    ("110001", "110000", "000100", "000010", "001000", "001000"),
    name="two-block-sft",
)

dec = spectral_decompose(two_block, seed=0)
print(f"{two_block.name}: {dec.component_count} basic sets,"
      f" recurrent symbols {dec.recurrent_nodes}")
for k, bs in enumerate(dec.basic_sets):
    print(f"  basic set {k}: symbols {sorted(bs.nodes)},"
          f" cycle through the root {bs.transitivity.tree_cycle(0)}")
print("  certificates revalidate:", dec.validate(two_block) == [])
print()

# the report form renders as a key: value document with tables
print(dec.to_report(two_block).to_text())

# the torus automorphism is irreducible: one basic set, stable as the
# entourage ladder shrinks
cat = torus_automorphism(((2, 1), (1, 1)), name="cat-map")
dect = spectral_decompose(cat, resolution=32)
print(f"{cat.name} on the 32x32 grid: {dect.component_count} basic set")
print(f"  ladder history (recurrent nodes, components) per radius:"
      f" {dect.history}")
print(f"  partition stabilized at ladder step {dect.stabilization_index};"
      " radii past that point")
print("  may under-connect the grid and are reported but not used")
print("  certificates revalidate:", dect.validate(cat) == [])
