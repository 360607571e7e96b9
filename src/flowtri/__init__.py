"""Exact-arithmetic equatorial flow triangulations of Gorenstein flow
polytopes: route decompositions, framed (clique) triangulations, equatorial
spheres, the reflexive quotient polytope and the planar order-polytope
correspondence."""

from .dag import (D1, D2, D3, Dag, Edge, G, bypass, contract_idle_edges,
                  dag_from_json, dag_to_json, degree_equality, dimension,
                  gorenstein_completion, make_dag, validate, zigzag)
from .dkk import (Triangulation, coherence_graph, dkk_triangulation, exceptional_routes,
                  verify_dkk_triangulation)
from .equatorial import equatorial_facets, equatorial_sphere, matching_framings, t_eq
from .geometry import ehrhart_hstar, normalized_volume
from .planar import (PlanarEmbedding, Poset, make_poset, planar_dual, poset_to_dag,
                     topmost_route_decomposition, verify_equivalence)
from .quotient import check_transversal_identity, phi, quotient_facets, verify_reflexive
from .routes import (Framing, NotGorensteinError, RouteTable, decomposition_framing,
                     enumerate_routes, graph_table, route_decomposition, route_table)

__version__ = "0.1.0"
