"""Reference implementations the tests check the system against; nothing
under ``src/`` imports them (the P4 pipeline model, exact Voronoi cells,
closed-form theory, weighted shortest paths, random placement, the
per-anchor join position solve)."""
