"""Decentralized Riemannian optimization on the Stiefel manifold.

Simulates networks of agents that jointly optimize over St(d, r) using only
neighbor gossip. Each name is imported from its module: manifold (points,
swarms, projection, retraction, consensus region), network (graphs, mixing
matrices, consensus rates), algorithms (drcs, drsgd/drdgd, drgta and run),
problems (the eigenvector benchmark), metrics and errors; harness and cli
configure, run and log experiments. The package itself holds only __version__.
"""

__version__ = "0.1.0"
