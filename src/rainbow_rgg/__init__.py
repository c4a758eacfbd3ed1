"""Coloured random geometric graph processes: simulation, exact oracles,
and a staged constructive builder for rainbow Hamilton cycles and perfect
matchings, with an experiment harness for hitting radii and limit laws."""

from .geometry import (PointSet, cube_diameter, json_safe, load_points, lp_lengths,
                       mc_unit_ball_volume, pairwise_distances, sample_points,
                       save_points, unit_ball_volume)
from .process import (ColouredProcess, HittingRadii, ReferenceRadii, build_process,
                      compute_hitting_radii, default_omega, events_csv_text,
                      first_feasible_prefix, hitting_radii_to_json,
                      hitting_radius_kconn, hitting_radius_min_degree,
                      pair_colours, reference_radii)
from .tessellation import (CellClassification, CellGraph, CellGrid,
                           DiagnosticsReport, TessellationRegimeError,
                           build_cell_graph, build_grid, classify_cells,
                           diagnostics, verify_cross_pairs)
from .hamilton import (exact_hamilton_cycle, exact_hamilton_path,
                       hamilton_cycle, hamilton_path)
from .oracle import (HC_VERTEX_LIMIT, PM_VERTEX_LIMIT, ColouredGraphInstance,
                     exact_hitting_rainbow, exact_rainbow_hamilton_cycle,
                     exact_rainbow_perfect_matching, instance_from_text,
                     rainbow_witness_at, validate_certificate)
from .builder import (BadPath, BuildFailure, GoodCycle, RainbowCertificate,
                      StageError, UglyPathPlan, apply_stitch, build_bad_forests,
                      build_good_cycles, build_rainbow, build_stitch_plan,
                      colour_ugly_paths, plan_ugly_paths)
from .harness import (ExperimentConfig, TrialRecord, corollary_radius,
                      finite_n_cdf_pm, hitting_radii, limit_cdf_hc,
                      limit_cdf_pm, max_knn_distance, min_degree_law_experiment,
                      printed_offset,
                      records_to_csv, records_to_json, run_trials)

__version__ = "0.1.0"
