"""Look at the construction in coordinate space.

The momentum-space machinery never needs r, but the transformed
picture is where the physics is easiest to see: the seed wavefunction
with its exponential tail, the bound-part kernel profile whose node
walks inward as the embedded energy grows, and the radial
integro-differential equation holding to quadrature accuracy.
"""

import numpy as np

from bicforge import (
    build_momentum_grid,
    build_uniform_radial_grid,
    coordinate_residual,
    energy_shift,
    gaussian_momentum_kernel,
    ground_state,
    momentum_to_coordinate,
    vb_profile_node,
    wavefunction_to_coordinate,
)

grid = build_momentum_grid(128)
v0 = gaussian_momentum_kernel(-30.0, 0.5, grid)
phi = ground_state(v0, grid)

mesh = build_uniform_radial_grid(1500, 12.0)
phi_r = wavefunction_to_coordinate(phi, mesh)

norm = np.sum(mesh.measure * phi_r ** 2)
window = (mesh.nodes > 3.0) & (mesh.nodes < 6.0)
slope = np.polyfit(mesh.nodes[window],
                   np.log(phi_r[window] * mesh.nodes[window]), 1)[0]
print("seed wavefunction in coordinate space")
print(f"  norm under r^2 dr:      {norm:.10f}")
print(f"  tail log-slope:         {slope:.6f}  "
      f"(gamma0 = sqrt(-E0) = {np.sqrt(-phi.energy):.6f})")

print()
print("bound-part profile node against the embedded energy")
print("  the kernel changes sign where (E + laplacian) phi(r') does;")
print("  higher E pulls the node inward")
energies = (0.0, 1.0, 4.0)
*nodes, node_e0 = vb_profile_node(phi_r, mesh.nodes,
                                  np.array([*energies, phi.energy]))
for e, node in zip(energies, nodes):
    print(f"  E = {e:+.1f} fm^-2:  node at r' = {node:.4f} fm")
print(f"  E = E0:         {'nodeless' if node_e0 is None else node_e0} "
      "(negative profile energy keeps one sign)")

print()
print("radial equation residual for the shifted potential at E = +1")
shifted = energy_shift(v0, phi, 1.0)
rgrid = build_uniform_radial_grid(900, 9.0)
ck = momentum_to_coordinate(shifted, rgrid)
phi_fine = wavefunction_to_coordinate(phi, rgrid)
res = coordinate_residual(ck, phi_fine, 1.0)
print(f"  residual = {res:.2e}  (finite differences on a "
      f"{rgrid.n}-point mesh)")
