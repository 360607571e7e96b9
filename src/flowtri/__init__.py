"""Exact-arithmetic equatorial flow triangulations of Gorenstein flow
polytopes: route decompositions, framed (clique) triangulations, equatorial
spheres, the reflexive quotient polytope and the planar order-polytope
correspondence."""

from .dag import (D1, D2, D3, Dag, Edge, G, bypass, contract_idle_edges,
                  dag_from_json, dag_to_json, degree_equality, dimension,
                  gorenstein_completion, make_dag, validate, zigzag)
from .dkk import (coherence_graph, dkk_triangulation, exceptional_routes,
                  verify_dkk_triangulation)
from .equatorial import differs_from_dkk, equatorial_facets, equatorial_sphere, t_eq
from .geometry import Triangulation, count_lattice_points, ehrhart_hstar, normalized_volume
from .planar import (PlanarEmbedding, Poset, make_poset, planar_dual,
                     planar_framing, poset_to_dag, topmost_route_decomposition,
                     verify_equivalence)
from .quotient import (check_transversal_identity, phi, quotient_facets,
                       transversal_functional, verify_reflexive)
from .routes import (Framing, NotGorensteinError, decomposition_framing,
                     enumerate_routes, route_decomposition)

__version__ = "0.1.0"
