"""SPD matrix utilities and sampling oracles.

Walks through the small-matrix toolbox the filter is built on: Cholesky
factorization, symmetric square roots, SPD projection, and the Wishart /
inverse-Wishart samplers whose moments anchor the extension model.
"""

import numpy as np

from memtrack import ops, spdmat

rng = np.random.default_rng(7)

print("== Cholesky and reconstruction ==")
m = rng.standard_normal((3, 3))
a = m @ m.T + np.eye(3)
ell = spdmat.cholesky(a)
print("relative reconstruction error:",
      np.linalg.norm(ell @ ell.T - a) / np.linalg.norm(a))

print("\n== Symmetric square root ==")
s = spdmat.sym_sqrt(a)
print("||S S - A|| / ||A|| =", np.linalg.norm(s @ s - a) / np.linalg.norm(a))

print("\n== SPD projection ==")
wobbly = np.array([[1.0, 2.0], [0.0, -0.3]])
fixed = ops.sym_project(wobbly, eps=1e-6)
print("input eigenvalues :", np.linalg.eigvalsh(0.5 * (wobbly + wobbly.T)))
print("output eigenvalues:", np.linalg.eigvalsh(fixed))

print("\n== Wishart sampler moment check ==")
dof, scale = 5.0, np.diag([2.0, 1.0])
mean = np.mean([spdmat.sample_wishart(dof, scale, rng) for _ in range(30000)], axis=0)
print("sample mean:\n", mean)
print("analytic dof * scale:\n", dof * scale)

print("\n== Inverse Wishart sampler moment check ==")
dof, param = 10.0, 4.0 * np.eye(2)
mean = np.mean([spdmat.sample_inverse_wishart(dof, param, rng) for _ in range(30000)], axis=0)
print("sample mean:\n", mean)
print("analytic param / (dof - d - 1):\n", param / (dof - 2 - 1))
print("\nNote: the filter's point-extension estimate uses the heavier")
print("lambda = dof - 2d - 2 normalization instead; both conventions are")
print("deliberate and tested separately.")
